"""Joint trainer: exact block least-squares for the factor matrices plus a
full-batch gradient step for the text autoencoder, alternated per epoch.

The minimized loss is

    1/2 Σ_rated (r_ui − θ_u·β_i)²
  + λ_s/2 Σ_ordered-pairs (s_ij − β_i·α_j)²
  + λ_user/2 ‖θ‖² + λ_item/2 Σ_i ‖β_i − encode(x0_i)‖² + λ_context/2 ‖α‖²
  + λ_recon/2 Σ_i ‖xc_i − reconstruct(x0_i)‖² + λ_decay/2 (‖W‖² + ‖b‖²)

where the pair sum runs over both (i,j) and (j,i) for every stored symmetric
entry — the reading under which each block update below is the exact minimizer
of its subproblem. With the autoencoder disabled the anchor degenerates to a
plain ridge toward zero and the model is classic regularized factorization.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import read_container, write_container
from .corpus import DocTermMatrix, EvalSplit, RatingDataset, SplitMode
from .errors import CheckpointError, TrainingDivergedError, ValidationError
from .ppmi import PpmiMatrix
from .scratch import Scratch
from .sdae import (SdaeConfig, SdaeParams, corrupt, encode, is_int, pretrain, sdae_pass,
                   stack_widths)
from .sparse import CHUNK_ROWS, CsrMatrix, from_coo

CHECKPOINT_VERSION = 1

ENTRY_CHUNK = CHUNK_ROWS * 16  # rating entries per chunk of the θ_u·β_i gathers
BATCH_ENTRIES = 1024  # most basis rows gathered at once for one batch of equal-length rows
MIN_BATCH_ROWS = 3    # fewer equal-length rows are assembled one at a time
SOLVE_CHUNK_BYTES = 2 << 20  # most bytes of one term's (rows, K, K) stack in the block solve
TILE_COLUMNS = 64     # columns per tile of the covered-tile form, or K when K is larger
COVER_FRACTION = 7 / 8  # a row covers a tile when it stores at least this share of its columns


@dataclass(frozen=True)
class Hyperparams:
    n_factors: int = 64
    lambda_s: float = 1.0           # weight of the co-click pair term
    lambda_user: float = 0.01
    lambda_item: float = 10.0       # pull of item factors toward the text anchor
    lambda_context: float = 0.01
    lambda_recon: float = 10.0
    lambda_decay: float = 1e-4
    sdae: SdaeConfig | None = None  # None disables the text model entirely
    max_epochs: int = 50
    patience: int = 5               # 0 disables early stopping
    seed: int = 0
    center_ratings: bool = False

    def __post_init__(self):
        for name in ("n_factors", "max_epochs", "patience", "seed"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.n_factors < 1:
            raise ValidationError("n_factors must be >= 1")
        for name in ("lambda_s", "lambda_user", "lambda_item", "lambda_context",
                     "lambda_recon", "lambda_decay"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValidationError(f"{name} must be finite")
            if value < 0:
                raise ValidationError(f"{name} must be nonnegative")
        if self.lambda_user <= 0 or self.lambda_context <= 0:
            raise ValidationError("lambda_user and lambda_context must be positive")
        if self.max_epochs < 1:
            raise ValidationError("max_epochs must be >= 1")
        if self.patience < 0:
            raise ValidationError("patience must be nonnegative")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class ModelState:
    user_factors: np.ndarray      # (n_users, K)
    item_factors: np.ndarray      # (n_items, K)
    context_factors: np.ndarray   # (n_items, K)
    sdae: SdaeParams | None
    epoch: int = 0
    rating_offset: float = 0.0

    def copy(self, into: "ModelState | None" = None) -> "ModelState":
        """A copy of this state: new arrays, or with `into`, a state of the same
        shapes, this state's values written into its arrays."""
        if into is None:
            return ModelState(self.user_factors.copy(), self.item_factors.copy(),
                              self.context_factors.copy(),
                              self.sdae.copy() if self.sdae is not None else None,
                              self.epoch, self.rating_offset)
        for target, value in zip(into._arrays(), self._arrays(), strict=True):
            target[...] = value
        into.epoch, into.rating_offset = self.epoch, self.rating_offset
        return into

    def _arrays(self) -> list[np.ndarray]:
        sdae = [] if self.sdae is None else self.sdae.weights + self.sdae.biases
        return [self.user_factors, self.item_factors, self.context_factors, *sdae]


@dataclass
class TrainData:
    """Inputs of one training run. The PPMI matrix, from training clicks, is
    required when λ_s > 0; the documents, when the text model is on."""

    split: EvalSplit
    ppmi: PpmiMatrix | None = None
    docs: DocTermMatrix | None = None


@dataclass
class EpochStats:
    epoch: int
    loss_after_users: float
    loss_after_items: float
    loss_after_contexts: float
    loss_epoch_end: float
    validation_rmse: float
    sdae_lr: float


@dataclass
class TrainingTrace:
    label: str
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_validation_rmse: float = float("inf")


def run_label(hyper: Hyperparams) -> str:
    """'pmf-degenerate' when both the click term and the text model are off."""
    return "pmf-degenerate" if hyper.lambda_s == 0 and hyper.sdae is None else "joint"


def _solve_spd(gram: np.ndarray, rhs: np.ndarray, ridge: float,
               out: np.ndarray) -> np.ndarray:
    """Solve one system (K, K) x = (K,), or a stack (n, K, K) x = (n, K), whose
    Grams include `ridge`·I, into `out`, and return it.

    Each system is factored once, as L Lᵀ, and solved from L by forward and
    back substitution, one column at a time across the whole stack. A finite
    Gram with no factor is singular with no ridge (ValidationError). A positive
    ridge makes it positive definite, so entries far larger than the ridge
    swamped it, and a non-finite Gram has no finite factor: both raise
    LinAlgError, which train() reports as divergence of the block. A finite
    Gram with a non-finite right-hand side solves to a non-finite row, which
    train()'s loss check reports. `out` is written only once L exists: first
    with the forward solution y, then, column by column from the last, with x.
    L is a new array, as np.linalg.cholesky takes no `out`.
    """
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        if ridge > 0 or not np.isfinite(gram).all():
            raise
        raise ValidationError(f"singular block system: {exc}") from None
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    if not np.isfinite(diag).all():
        raise np.linalg.LinAlgError("non-finite Cholesky factor")
    x = y = out     # x[j] replaces y[j], which only x[j] reads
    k = rhs.shape[-1]
    for j in range(k):          # L y = rhs
        y[..., j] = (rhs[..., j] - np.einsum("...m,...m->...", chol[..., j, :j],
                                             y[..., :j])) / diag[..., j]
    for j in range(k - 1, -1, -1):  # Lᵀ x = y
        x[..., j] = (y[..., j] - np.einsum("...m,...m->...", chol[..., j + 1:, j],
                                           x[..., j + 1:])) / diag[..., j]
    return out


@dataclass(frozen=True)
class TilePlan:
    """The covered-tile form of one matrix at one K (see _plan_tiles): the
    tiles each row covers and the columns that correct their sum. It holds
    column indices and signs, and no value of the matrix."""

    spans: np.ndarray      # (tiles, 2): first and one-past-last column of each covered tile
    cover: CsrMatrix       # row r's covered tiles, as positions in `spans`, each of value 1.0
    # for a row that covers a tile: −1.0 at each column of its covered tiles
    # that it does not store, +1.0 at each column it stores outside them
    correction: CsrMatrix


def _runs(begins: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges begins[i] up to begins[i] + counts[i]."""
    return np.repeat(begins - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _plan_tiles(matrix: CsrMatrix, k: int) -> TilePlan | None:
    """The covered-tile plan of `matrix` at K = k, None when no row covers a tile.

    Columns are cut into tiles of max(TILE_COLUMNS, K) columns, the last tile
    also taking the columns left over, so every tile is at least K columns
    wide unless the matrix has fewer. A row covers a tile when it stores at
    least COVER_FRACTION of the tile's columns; a tile narrower than K is
    never covered, so no tile's K × K Gram holds more floats than its basis
    rows. A covered tile costs a row one K × K addition plus one outer product
    per column it lacks, at most 1/8 of the tile, where gathering would take
    one per stored column, at least 7/8: never more than the row's entries.

    The matrix is read a chunk of CHUNK_ROWS rows at a time, so no temporary
    is longer than one chunk's entries (or, for the columns of the chunk's
    covered tiles, 8/7 of them)."""
    n_rows, n_cols = matrix.shape
    width = max(TILE_COLUMNS, k)
    n_tiles = max(1, n_cols // width) if n_cols else 0
    starts = np.arange(n_tiles) * width
    widths = np.diff(np.append(starts, n_cols))
    need = np.where(widths >= k, np.ceil(COVER_FRACTION * widths), np.inf)
    indptr, indices = matrix.indptr, matrix.indices
    lengths = np.diff(indptr)
    least = need.min(initial=np.inf)
    pieces = []
    for start in range(0, n_rows, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_rows)
        if lengths[start:stop].max() < least:
            continue
        cols = indices[indptr[start]:indptr[stop]]
        # the chunk's entries run in (row, tile) order: one run per occupied cell
        cell = np.repeat(np.arange(stop - start) * n_tiles, lengths[start:stop])
        cell += np.minimum(cols // width, n_tiles - 1)
        begins = np.concatenate(([0], np.flatnonzero(cell[1:] != cell[:-1]) + 1))
        counts = np.diff(begins, append=len(cell))
        row, tile = np.divmod(cell[begins], n_tiles)
        del cell
        covers = counts >= need[tile]
        if not covers.any():
            continue
        covering = np.zeros(stop - start, dtype=bool)
        covering[row[covers]] = True
        outside = covering[row] & ~covers
        # each covered cell that lacks columns: all its columns, the stored ones struck off
        short = covers & (counts < widths[tile])
        span = widths[tile[short]]
        offset = starts[tile[short]] - (np.cumsum(span) - span)    # column − position
        missing = np.ones(int(span.sum()), dtype=bool)
        stored = cols[_runs(begins[short], counts[short])]
        missing[stored - np.repeat(offset, counts[short])] = False
        absent = np.repeat(offset, span) + np.arange(len(missing))
        pieces.append((row[covers] + start, tile[covers],
                       np.repeat(row[short] + start, span)[missing], absent[missing],
                       indptr[start] + _runs(begins[outside], counts[outside])))
    if not pieces:
        return None
    cover_rows, cover_tiles, absent_rows, absent_cols, extra_at = (
        np.concatenate(part) for part in zip(*pieces))
    extra_rows = np.searchsorted(indptr, extra_at, side="right") - 1
    tiles, position = np.unique(cover_tiles, return_inverse=True)
    signs = np.repeat([-1.0, 1.0], [len(absent_rows), len(extra_at)])
    return TilePlan(np.stack([starts[tiles], starts[tiles] + widths[tiles]], axis=1),
                    from_coo((n_rows, len(tiles)), cover_rows, position, np.ones(len(position))),
                    from_coo(matrix.shape, np.concatenate([absent_rows, extra_rows]),
                             np.concatenate([absent_cols, indices[extra_at]]), signs))


def _tile_grams(plan: TilePlan, basis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """BₜᵀBₜ of each covered tile t of `plan`, Bₜ its contiguous basis rows,
    written into `out`, a (tiles, K, K) array, and returned."""
    for gram, (lo, hi) in zip(out, plan.spans.tolist()):
        np.matmul(basis[lo:hi].T, basis[lo:hi], out=gram)
    return out


def _assemble_chunk(gram: np.ndarray, rhs: np.ndarray | None, matrix: CsrMatrix,
                    basis: np.ndarray, start: int, stop: int, scratch: Scratch,
                    slots: np.ndarray | None = None) -> None:
    """Write BᵀB and Bᵀv of each row r of `matrix` in start:stop into
    gram[r - start] and rhs[r - start], zeros for a row with no entries;
    see _solve_rows. `slots`, when given, limits this to the rows at those
    offsets r - start. With rhs None, add each row's Gram weighted by its
    values, Σ_j v_j B_j B_jᵀ, onto its slot instead, and leave the slots of
    rows with no entries as they are.
    A batch's gather and products are views of `scratch`:
    _solve_rows checks that the indices fit the basis, so np.take's "clip"
    clips nothing, and it writes straight into `out`, where "raise" would copy.
    A row alone gathers a new length × K array, which a view would make no
    cheaper: it comes from the heap below 512 entries at K 32."""
    k = gram.shape[-1]
    indices, values = matrix.indices, matrix.data
    bounds = matrix.indptr[start:stop + 1]
    lengths = bounds[1:] - bounds[:-1]
    order = (np.argsort(lengths, kind="stable") if slots is None
             else slots[np.argsort(lengths[slots], kind="stable")])
    ordered = lengths[order]
    heads = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(np.append(heads, len(order)))
    # with rhs None a batch's weighted gather shares the products' buffer, so
    # its rows are capped by length + K
    per_batch = BATCH_ENTRIES // (np.maximum(ordered[heads], k) if rhs is not None
                                  else ordered[heads] + k)
    shared = (sizes >= MIN_BATCH_ROWS) & (per_batch >= MIN_BATCH_ROWS) & (ordered[heads] > 0)
    with scratch.frame():
        # a batch's gather and Gram products hold at most BATCH_ENTRIES × K floats each
        gathered, products, rhs_products = scratch.take(
            (BATCH_ENTRIES * k,), (BATCH_ENTRIES * k,), (BATCH_ENTRIES,))
        for head, size, per in zip(*(part[shared].tolist() for part in (heads, sizes, per_batch))):
            group = order[head:head + size]
            length = int(lengths[group[0]])
            span = np.arange(length)
            step = -(-size // -(-size // per))  # as few batches as the cap allows, evenly filled
            for at in range(0, size, step):
                batch = group[at:at + step]
                n = len(batch)
                entries = bounds[batch, None] + span
                rows = np.take(basis, indices[entries], axis=0, mode="clip",
                               out=gathered[:n * length * k].reshape(n, length, k))
                grams = products[:n * k * k].reshape(n, k, k)
                if rhs is not None:
                    gram[batch] = np.matmul(rows.transpose(0, 2, 1), rows, out=grams)
                    rhs[batch] = np.matmul(values[entries][:, None, :], rows,
                                           out=rhs_products[:n * k].reshape(n, 1, k))[:, 0]
                    continue
                left = products[n * k * k:n * k * (k + length)].reshape(n, length, k)
                np.multiply(rows, values[entries][..., None], out=left)
                np.matmul(left.transpose(0, 2, 1), rows, out=grams)
                if batch[-1] - batch[0] == n - 1:   # consecutive slots: added in place
                    gram[batch[0]:batch[0] + n] += grams
                else:
                    gram[batch] += grams
    alone = order[np.repeat(~shared, sizes)]
    if rhs is not None:
        empty = alone[lengths[alone] == 0]
        gram[empty] = 0.0
        rhs[empty] = 0.0
    bounds = bounds.tolist()
    for r in alone[lengths[alone] > 0].tolist():
        lo, hi = bounds[r], bounds[r + 1]
        rows = basis.take(indices[lo:hi], axis=0)
        if rhs is not None:
            np.matmul(rows.T, rows, out=gram[r])
            np.matmul(values[lo:hi], rows, out=rhs[r])
        else:
            gram[r] += (rows * values[lo:hi, None]).T @ rows


def _assemble_tiled(gram: np.ndarray, rhs: np.ndarray, matrix: CsrMatrix, basis: np.ndarray,
                    start: int, stop: int, scratch: Scratch, plan: TilePlan | None,
                    tile_grams: np.ndarray | None) -> None:
    """_assemble_chunk, with each row of start:stop that covers a tile of
    `plan` assembled in the covered-tile form (see _solve_rows) from the
    plan's `tile_grams`; the other rows, as _assemble_chunk assembles them."""
    if plan is not None:
        covered = plan.cover.indptr[start + 1:stop + 1] > plan.cover.indptr[start:stop]
    if plan is None or not covered.any():
        _assemble_chunk(gram, rhs, matrix, basis, start, stop, scratch)
        return
    k = gram.shape[-1]
    plan.cover.rows_matmul(start, stop, tile_grams.reshape(-1, k * k), gram.reshape(-1, k * k))
    matrix.rows_matmul(start, stop, basis, rhs)
    _assemble_chunk(gram, None, plan.correction, basis, start, stop, scratch)
    plain = np.flatnonzero(~covered)
    if len(plain):
        _assemble_chunk(gram, rhs, matrix, basis, start, stop, scratch, slots=plain)


def _solve_chunk_rows(k: int) -> int:
    """Rows per chunk of the block solve: CHUNK_ROWS, fewer when K is so large
    that a chunk's (rows, K, K) stack would pass SOLVE_CHUNK_BYTES."""
    return min(CHUNK_ROWS, max(1, SOLVE_CHUNK_BYTES // (8 * k * k)))


def _solve_rows(out: np.ndarray, ridge: float, terms: list,
                anchor: np.ndarray | None = None,
                scratch: Scratch | None = None, plans: list | None = None) -> list[float]:
    """Write into each row r of `out` the exact ridge solution of

        (Σ_b w_b Σ_{j∈N_b(r)} B_j B_jᵀ + ridge·I) x = Σ_b w_b Σ_{j∈N_b(r)} v_j B_j + ridge·anchor_r

    where each term b is (w_b, S_b, B): S_b is a CsrMatrix whose row r stores
    the neighbours N_b(r) as column indices with values v_j, and the rows of
    the dense matrix B are the vectors B_j those columns index. Without an
    anchor the ridge pulls toward zero. Returns each term's weighted residual
    w_b Σ_r Σ_{j∈N_b(r)} (v_j − x_r·B_j)² at the solved rows x_r.

    Rows are solved in chunks of _solve_chunk_rows(K) rows, one stacked solve
    per chunk: CHUNK_ROWS at K ≤ 32, fewer above, so that one (rows, K, K)
    stack holds at most SOLVE_CHUNK_BYTES whatever K. For each term the chunk's
    Grams and right-hand sides are assembled in a (rows, K, K) and a (rows, K)
    stack:
    - rows of the chunk with the same number of stored entries share batches:
      per batch one gather of their basis rows, one batched BLAS product for
      their Grams and one for their right-hand sides, written into their
      slots. A batch holds at most BATCH_ENTRIES gathered entries and at most
      BATCH_ENTRIES / K rows, so no batch array exceeds BATCH_ENTRIES × K floats;
    - a row of fewer than MIN_BATCH_ROWS rows of its length, or too long for
      that many to share a batch, is gathered alone and its two products are
      written straight into its slot: a batch of two measured no faster than
      two such rows, and rows of a dense PPMI are long and mostly of distinct
      lengths;
    - only the slots of rows with no entries are zeroed.
    Rows are never padded to a common length: with equal lengths each batched
    product runs, row by row, the BLAS routine on the operands that the row's
    own product would, so it gives the same bits, which padding did not.

    A row that stores nearly all of a tile's columns skips most of that
    gather. Each term's matrix has a covered-tile plan (_plan_tiles; `plans`,
    one per term, or built here when None), and per call the Gram BₜᵀBₜ of
    each covered tile is formed once from its contiguous basis rows. A row
    that covers tiles gets, by scipy's CSR kernel, the sum of its tiles' Grams
    as its Gram and Σ v_j B_j over all its entries as its right-hand side;
    then the plan's correction set, short rows batched as above, subtracts
    the outer product of each column it lacks in its tiles and adds that of
    each entry it stores outside them. The other rows of the chunk are
    assembled as above.

    Then, once per chunk, the term's stacks are scaled by its weight (skipped
    at 1.0); the first term's stacks take ridge on their diagonals and
    ridge·anchor on their right-hand sides, and each later term's stacks are
    added to them.

    So the system of every row that covers no tile is bit-identical (up to
    the sign of an exact zero) to adding each row's w·BᵀB and w·Bᵀv onto
    ridge·I and ridge·anchor term by term: the additions come in the same
    order, and floating-point addition commutes. A row that covers a tile
    sums the same products in another order, which moved the solved factors
    of a 0.998-dense PPMI by about 1e-13 relative.

    After the solve the later terms, the ridge and the anchor are taken back
    out of the first term's stacks, so that each term's stacks hold its own
    weighted Gram G_r and right-hand side b_r, and its residual is read off
    them as w·Σ v² − 2 x_r·b_r + x_rᵀ G_r x_r: K² per row and no gather.

    The stacks, the tile Grams, the batch gathers and products of the
    assembly, ridge·anchor and the products G_r x_r are views of `scratch` (a
    Scratch of this call's own when None), taken once per call or per chunk
    and reused by every chunk; each solved chunk is written straight into
    its rows of `out`. Per chunk only the Cholesky factor is a new array, as
    np.linalg.cholesky takes no `out`, and so is each gather of a row
    assembled alone, small enough to come from the heap.
    """
    n_rows, k = out.shape
    for _, matrix, basis in terms:
        if basis.shape != (matrix.shape[1], k):
            raise ValidationError(f"a basis of shape {basis.shape} does not fit "
                                  f"{matrix.shape[1]} columns and K = {k}")
    if plans is None:
        plans = [_plan_tiles(matrix, k) for _, matrix, _ in terms]
    diag = np.arange(k)
    chunk_rows = _solve_chunk_rows(k)
    height = min(chunk_rows, n_rows)
    scratch = Scratch() if scratch is None else scratch
    residuals = [weight * float(matrix.data @ matrix.data) for weight, matrix, _ in terms]
    with scratch.frame():
        views = scratch.take(*[(height, k, k), (height, k)] * len(terms),
                             *[(len(plan.spans), k, k) for plan in plans if plan is not None])
        stacks = list(zip(views[:2 * len(terms):2], views[1:2 * len(terms):2]))
        spare = iter(views[2 * len(terms):])
        tile_grams = [None if plan is None else _tile_grams(plan, basis, next(spare))
                      for plan, (_, _, basis) in zip(plans, terms)]
        for start in range(0, n_rows, chunk_rows):
            stop = min(start + chunk_rows, n_rows)
            chunk = [(gram[:stop - start], rhs[:stop - start]) for gram, rhs in stacks]
            for (weight, matrix, basis), plan, grams, (term_gram, term_rhs) in zip(
                    terms, plans, tile_grams, chunk):
                _assemble_tiled(term_gram, term_rhs, matrix, basis, start, stop, scratch,
                                plan, grams)
                if weight != 1.0:
                    term_gram *= weight
                    term_rhs *= weight
            gram, rhs = chunk[0]    # the ridge joins before any later term, as in a per-row sum
            with scratch.frame():   # where the assembly's temporaries were
                (tmp,) = scratch.take((stop - start, k))
                gram[:, diag, diag] += ridge
                if anchor is not None:
                    rhs += np.multiply(anchor[start:stop], ridge, out=tmp)
                for term_gram, term_rhs in chunk[1:]:
                    gram += term_gram
                    rhs += term_rhs
                x = _solve_spd(gram, rhs, ridge, out[start:stop])
                for term_gram, term_rhs in chunk[1:]:
                    gram -= term_gram
                    rhs -= term_rhs
                gram[:, diag, diag] -= ridge
                if anchor is not None:
                    rhs -= np.multiply(anchor[start:stop], ridge, out=tmp)
                for b, (term_gram, term_rhs) in enumerate(chunk):
                    fitted = np.matmul(term_gram, x[..., None], out=tmp.reshape(-1, k, 1))
                    residuals[b] += np.vdot(fitted, x) - 2.0 * np.vdot(x, term_rhs)
    return [float(value) for value in residuals]


def predict_ratings(state: ModelState, ratings: RatingDataset, mode: SplitMode,
                    docs: DocTermMatrix | None = None,
                    scratch: Scratch | None = None) -> np.ndarray:
    """Predicted rating of each entry of `ratings`, offset included, as a new
    array. in_matrix reads the item factor table; out_of_matrix encodes every
    item's clean text row once, into an n_items × K table, and reads no item
    factor. The user table and the item table must have one row per user and
    item of `ratings`.

    θ_u·β_i is formed ENTRY_CHUNK entries at a time, written into the one
    output vector, so no n_entries × K gather and no other n_entries-long
    scratch array is ever held. Each chunk's θ and β gathers are views of
    `scratch` (a Scratch of this call's own when None).
    """
    if mode == "in_matrix":
        item_table, item_name = state.item_factors, "item factors"
    elif mode == "out_of_matrix":
        if docs is None or state.sdae is None:
            raise ValidationError("out_of_matrix prediction needs documents and the text model")
        item_table, item_name = docs.rows, "document rows"
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    for name, table, n, kind in (("user factors", state.user_factors, ratings.n_users, "users"),
                                 (item_name, item_table, ratings.n_items, "items")):
        if table.shape[0] != n:
            raise ValidationError(f"{name} have {table.shape[0]} rows for the {n} {kind} "
                                  "of the ratings")
    if mode == "out_of_matrix":
        item_table = encode(item_table, state.sdae)
    out = np.empty(ratings.n_entries)
    height = min(ENTRY_CHUNK, len(out))
    scratch = Scratch() if scratch is None else scratch
    with scratch.frame():
        # indices are checked against the tables above, so "clip" clips nothing;
        # it lets np.take write straight into `out=`, which "raise" would copy
        user_rows, item_rows = scratch.take((height, state.user_factors.shape[1]),
                                            (height, item_table.shape[1]))
        for start in range(0, len(out), ENTRY_CHUNK):
            chunk = slice(start, start + ENTRY_CHUNK)
            n = len(out[chunk])
            np.einsum("ij,ij->i",
                      np.take(state.user_factors, ratings.users[chunk], axis=0, mode="clip",
                              out=user_rows[:n]),
                      np.take(item_table, ratings.items[chunk], axis=0, mode="clip",
                              out=item_rows[:n]), out=out[chunk])
    out += state.rating_offset
    return out


def _pair_residual_sq(matrix: CsrMatrix, beta: np.ndarray, alpha: np.ndarray,
                      scratch: Scratch | None = None) -> float:
    """Σ (s_ij − β_i·α_j)² over the stored entries of `matrix`, stored zeros included.

    Each chunk of CHUNK_ROWS rows forms beta[chunk] @ alpha.T, in a view of
    `scratch` (a Scratch of this call's own when None), and reads its stored
    entries out of that product, so no factor row is gathered per entry:
    temporary memory is one CHUNK_ROWS·n_items product and the chunk's
    entries, not 2·nnz·K floats.
    The product costs n_items²·K flops at BLAS speed whatever the density.
    Against the per-entry gather of β_i and α_j (K=32, one BLAS thread) it
    breaks even near 1% density and is 16× faster on a full matrix; the
    co-click PPMIs of the benchmark worlds are 23% and 99.8% dense. Chunks with
    no stored entry are skipped.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    n_rows = matrix.shape[0]
    total = 0.0
    scratch = Scratch() if scratch is None else scratch
    with scratch.frame():
        (products,) = scratch.take((min(CHUNK_ROWS, n_rows), alpha.shape[0]))
        for start in range(0, n_rows, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n_rows)
            lo, hi = indptr[start], indptr[stop]
            if lo == hi:
                continue
            local_rows = np.repeat(np.arange(stop - start), np.diff(indptr[start:stop + 1]))
            product = np.matmul(beta[start:stop], alpha.T, out=products[:stop - start])
            resid = data[lo:hi] - product[local_rows, indices[lo:hi]]
            total += float(resid @ resid)
    return total


def _sum_sq(array: np.ndarray) -> float:
    return float((array * array).sum())


def train(data: TrainData, hyper: Hyperparams) -> tuple[ModelState, TrainingTrace]:
    """Alternate user / item-feature / item-context solves and one autoencoder
    gradient step per epoch; stop on stale validation RMSE; return the state
    of the best validation epoch plus the per-epoch trace.

    The traced losses sum one set of loss terms in a fixed order, each set
    where its inputs change. The block solves report the data terms, read off
    their systems with no per-rating gather and no n_items-wide product: the
    user block the rating term, the item block the rating and pair terms, the
    context block the pair term. The start state's pair term, which no block
    has solved, is evaluated once directly. A non-finite term raises
    TrainingDivergedError naming it.

    With the text model on, an epoch runs three autoencoder passes: a forward
    pass (item anchor and autoencoder terms), the gradient pass, and a forward
    pass after the step (epoch-end loss). Only the autoencoder moves between
    the last two losses; the learning rate halves when the step raised the loss.
    """
    split = data.split
    train_ds = split.train
    n_users, n_items, k = train_ds.n_users, train_ds.n_items, hyper.n_factors
    sdae_on = hyper.sdae is not None
    docs = data.docs
    if sdae_on:
        if docs is None:
            raise ValidationError("autoencoder enabled but no document matrix supplied")
        if docs.n_items != n_items:
            raise ValidationError("document matrix rows do not match item count")
    if hyper.lambda_s > 0:     # λ_s > 0 alone switches the click term on
        if data.ppmi is None:
            raise ValidationError("lambda_s > 0 but no PPMI matrix supplied")
        if data.ppmi.matrix.shape != (n_items, n_items):
            raise ValidationError(f"PPMI matrix of shape {data.ppmi.matrix.shape} does not "
                                  f"match the {n_items} items of the item factors")
    if split.mode == "out_of_matrix" and not sdae_on:
        raise ValidationError("out_of_matrix validation requires the text model")

    offset = float(train_ds.ratings.mean()) if hyper.center_ratings else 0.0
    values = train_ds.ratings - offset

    scratch = Scratch()     # every phase's chunk temporaries; see README
    rng = np.random.default_rng(hyper.seed)
    theta = 0.01 * rng.standard_normal((n_users, k))
    if sdae_on:
        params, beta = pretrain(docs.rows, hyper.sdae, k, seed=hyper.seed, scratch=scratch)
    else:
        params = None
        beta = 0.01 * rng.standard_normal((n_items, k))
    alpha = 0.01 * rng.standard_normal((n_items, k))

    by_user = from_coo((n_users, n_items), train_ds.users, train_ds.items, values)
    by_item = from_coo((n_items, n_users), train_ds.items, train_ds.users, values)
    # each block's terms; the factor matrices in them are solved in place
    user_terms = [(1.0, by_user, beta)]
    item_terms = [(1.0, by_item, theta)]
    context_terms = []
    if hyper.lambda_s > 0:
        item_terms.append((hyper.lambda_s, data.ppmi.matrix, alpha))
        context_terms.append((hyper.lambda_s, data.ppmi.matrix, beta))
    # each matrix's covered-tile plan, built once per run for every solve of every epoch
    plans = {matrix: _plan_tiles(matrix, k) for _, matrix, _ in item_terms + user_terms}

    state = ModelState(theta, beta, alpha, params, 0, offset)
    trace = TrainingTrace(label=run_label(hyper))
    sdae_lr = hyper.sdae.learning_rate if sdae_on else 0.0
    encoding = recon_sq = best_state = None
    stale = 0
    # the loss terms of the current state, in summation order; adding a pair
    # term of 0.0 when λ_s = 0 leaves every sum bit-identical
    item_reg = "item_anchor" if sdae_on else "item_reg"
    terms = dict.fromkeys(("rating", "pair", "user_reg", "context_reg", item_reg)
                          + (("reconstruction", "decay") if sdae_on else ()), 0.0)

    def loss(epoch: int, changed: dict[str, float]) -> float:
        """Set the `changed` terms, each checked finite, and sum all terms."""
        for name, value in changed.items():
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch, name)
        terms.update(changed)
        return sum(terms.values())

    def solve(epoch: int, block: str, out, ridge: float, block_terms, names,
              anchor=None) -> float:
        """Solve one block and return the loss. `names` names its terms, then
        its ridge term: each term takes half its residual, the ridge term
        ridge/2·‖out − anchor‖²."""
        try:
            residuals = _solve_rows(out, ridge, block_terms, anchor, scratch,
                                    [plans[matrix] for _, matrix, _ in block_terms])
        except np.linalg.LinAlgError:
            raise TrainingDivergedError(epoch, block, block=True) from None
        changed = {name: 0.5 * value for name, value in zip(names, residuals)}
        changed[names[-1]] = 0.5 * ridge * _sum_sq(out if anchor is None else out - anchor)
        return loss(epoch, changed)

    def autoencoder_terms() -> dict[str, float]:
        return {"item_anchor": 0.5 * hyper.lambda_item * _sum_sq(beta - encoding),
                "reconstruction": 0.5 * hyper.lambda_recon * recon_sq,
                "decay": 0.5 * hyper.lambda_decay * params.squared_norm()}

    # the start state's terms that epoch 1 reads before a block sets them; no
    # block has solved its pair term, so that one is evaluated directly
    pair = (_pair_residual_sq(data.ppmi.matrix, beta, alpha, scratch) if hyper.lambda_s > 0
            else 0.0)
    start = {"pair": 0.5 * hyper.lambda_s * pair,
             "context_reg": 0.5 * hyper.lambda_context * _sum_sq(alpha)}
    if not sdae_on:
        start["item_reg"] = 0.5 * hyper.lambda_item * _sum_sq(beta)
    loss(1, start)

    for epoch in range(1, hyper.max_epochs + 1):
        if sdae_on:
            xc = docs.rows
            x0 = corrupt(xc, hyper.sdae.noise_rate,
                         np.random.SeedSequence(entropy=hyper.seed, spawn_key=(epoch,)))
            encoding, recon_sq, _ = sdae_pass(params, x0, xc, scratch=scratch)
            loss(epoch, autoencoder_terms())

        loss_users = solve(epoch, "user", theta, hyper.lambda_user, user_terms,
                           ("rating", "user_reg"))
        loss_items = solve(epoch, "item", beta, hyper.lambda_item, item_terms,
                           ("rating", "pair", item_reg), encoding)
        if context_terms:
            loss_contexts = solve(epoch, "context", alpha, hyper.lambda_context, context_terms,
                                  ("pair", "context_reg"))
        else:
            alpha[:] = 0.0
            loss_contexts = loss(epoch, {"context_reg": 0.0})

        loss_end = loss_contexts
        if sdae_on:
            _, _, (grads_w, grads_b) = sdae_pass(
                params, x0, xc, beta, lambda_anchor=hyper.lambda_item,
                lambda_recon=hyper.lambda_recon, lambda_decay=hyper.lambda_decay,
                scratch=scratch)
            for value, grad in zip(params.weights + params.biases, grads_w + grads_b):
                grad *= sdae_lr
                value -= grad               # in place
            del grads_w, grads_b            # not held through the next epoch's solves
            encoding, recon_sq, _ = sdae_pass(params, x0, xc, scratch=scratch)
            loss_end = loss(epoch, autoencoder_terms())
            if loss_end > loss_contexts:
                sdae_lr *= 0.5

        err = split.validation.ratings - predict_ratings(state, split.validation,
                                                         split.mode, docs, scratch)
        rmse_val = float(np.sqrt(np.mean(err * err)))
        if not np.isfinite(rmse_val):
            raise TrainingDivergedError(epoch, "validation_rmse")
        state.epoch = epoch
        trace.epochs.append(EpochStats(epoch, loss_users, loss_items, loss_contexts,
                                       loss_end, rmse_val, sdae_lr))
        if rmse_val < trace.best_validation_rmse:
            trace.best_validation_rmse = rmse_val
            trace.best_epoch = epoch
            best_state = state.copy(into=best_state)   # one copy per run, not per epoch
            stale = 0
        else:
            stale += 1
            if hyper.patience and stale >= hyper.patience:
                break
    return best_state, trace


def _hyper_from_dict(blob: dict) -> Hyperparams:
    """Inverse of dataclasses.asdict(hyper). Older checkpoints store the full
    symmetric `layer_widths` stack, read as its hidden widths, and an
    `activation` key, which was always "sigmoid" and is dropped."""
    blob = dict(blob)
    sdae_blob = blob.pop("sdae", None)
    if not isinstance(sdae_blob, (dict, type(None))):
        raise ValidationError(f"sdae must be an object or null, got {sdae_blob!r}")
    if sdae_blob is not None:
        sdae_blob = {k: v for k, v in sdae_blob.items() if k != "activation"}
        if "layer_widths" in sdae_blob:
            widths = sdae_blob.pop("layer_widths")
            sdae_blob["hidden_widths"] = widths[1:len(widths) // 2]
    return Hyperparams(sdae=SdaeConfig(**sdae_blob) if sdae_blob is not None else None,
                       **blob)


def _check_fits(path, state: ModelState, hyper: Hyperparams, user_ids, item_ids) -> None:
    """Raise CheckpointError naming `path` unless `state` is the model `hyper`
    describes, with one id per factor row: factor tables of K = n_factors
    columns, item and context ones of one shape, and an autoencoder exactly when
    hyper.sdae is set, shaped by stack_widths(rows of sdae_w_0, hidden_widths, K)."""
    k, sdae = hyper.n_factors, state.sdae
    shapes = [state.user_factors.shape, state.item_factors.shape, state.context_factors.shape]
    if any(shape[1:] != (k,) for shape in shapes) or shapes[1] != shapes[2]:
        raise CheckpointError(f"{path}: factor shapes {shapes} are not "
                              f"(users, {k}), (items, {k}), (items, {k})")
    for kind, ids, (rows, _) in (("user", user_ids, shapes[0]), ("item", item_ids, shapes[1])):
        if len(ids) != rows:
            raise CheckpointError(f"{path}: {len(ids)} {kind} ids for {rows} {kind} factor rows")
    if (sdae is None) != (hyper.sdae is None):
        raise CheckpointError(f"{path}: an autoencoder is stored exactly when hyper.sdae is set")
    if sdae is not None:
        try:
            widths = stack_widths(sdae.weights[0].shape[0], hyper.sdae.hidden_widths, k)
            fits = ([w.shape for w in sdae.weights] == list(zip(widths, widths[1:]))
                    and [b.shape for b in sdae.biases] == [(w,) for w in widths[1:]])
        except (IndexError, ValidationError):
            fits = False
        if not fits:
            raise CheckpointError(f"{path}: autoencoder layer shapes do not fit hidden widths "
                                  f"{hyper.sdae.hidden_widths} and {k} factors")


def save_checkpoint(path: str | Path, state: ModelState, hyper: Hyperparams, *,
                    user_ids: tuple[str, ...], item_ids: tuple[str, ...],
                    vocab: tuple[str, ...] = (),
                    config_fingerprint: str = "",
                    best_validation_rmse: float | None = None,
                    split_record: dict | None = None) -> None:
    """Versioned binary checkpoint: manifest header plus little-endian float64
    arrays, whose shapes give every size. `split_record` names the settings
    that drew the training split. A state load_checkpoint would refuse raises
    CheckpointError and writes no file."""
    _check_fits(path, state, hyper, user_ids, item_ids)
    meta = {"format_version": CHECKPOINT_VERSION, "hyper": dataclasses.asdict(hyper),
            "epoch": state.epoch, "rating_offset": state.rating_offset,
            "config_fingerprint": config_fingerprint,
            "best_validation_rmse": best_validation_rmse,
            "user_ids": list(user_ids), "item_ids": list(item_ids), "vocab": list(vocab),
            "split": split_record}
    arrays = {"user_factors": state.user_factors, "item_factors": state.item_factors,
              "context_factors": state.context_factors}
    if state.sdae is not None:
        for layer, (w, b) in enumerate(zip(state.sdae.weights, state.sdae.biases)):
            arrays.update({f"sdae_w_{layer}": w, f"sdae_b_{layer}": b})
    write_container(path, meta, arrays)


def load_checkpoint(path: str | Path) -> tuple[ModelState, Hyperparams, dict]:
    """Read and validate a checkpoint; returns (state, hyperparams, meta). The
    autoencoder, when hyper.sdae is set, is its 2·len(hidden_widths)+2 layers.
    The state must pass save's _check_fits; user_ids, item_ids and vocab must be
    lists of strings, epoch an int >= 0, rating_offset a finite number and split
    an object or null. The size keys earlier checkpoints also store (n_users,
    n_items, n_factors, vocab_size, layer_widths, run) are ignored."""
    meta, arrays = read_container(path)
    if meta.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {meta.get('format_version')!r}")
    try:
        hyper = _hyper_from_dict(meta["hyper"])
    except (TypeError, ValueError, ValidationError) as exc:
        raise CheckpointError(f"{path}: bad hyperparameters: {exc}") from None
    sdae_params = None
    if hyper.sdae is not None:
        layers = range(2 * len(hyper.sdae.hidden_widths) + 2)
        sdae_params = SdaeParams([arrays[f"sdae_w_{layer}"] for layer in layers],
                                 [arrays[f"sdae_b_{layer}"] for layer in layers])
    user_ids, item_ids, _ = (meta.strings(key) for key in ("user_ids", "item_ids", "vocab"))
    if not isinstance(meta.get("split"), (dict, type(None))):
        raise CheckpointError(f"{path}: 'split' must be an object or null")
    epoch = meta.checked("epoch", lambda v: type(v) is int and v >= 0, "a nonnegative integer")
    offset = meta.checked("rating_offset", lambda v: type(v) in (int, float)
                          and abs(v) <= sys.float_info.max, "a finite number")
    state = ModelState(arrays["user_factors"], arrays["item_factors"],
                       arrays["context_factors"], sdae_params, epoch, offset)
    _check_fits(path, state, hyper, user_ids, item_ids)
    return state, hyper, meta
