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
from .sdae import (SdaeConfig, SdaeParams, corrupt, encode, is_int, pretrain, sdae_pass,
                   stack_widths)
from .sparse import CHUNK_ROWS, CsrMatrix, from_coo

CHECKPOINT_VERSION = 1

ENTRY_CHUNK = CHUNK_ROWS * 16  # rating entries per chunk of the θ_u·β_i gathers
BATCH_ENTRIES = 1024  # most basis rows gathered at once for one batch of equal-length rows
MIN_BATCH_ROWS = 3    # fewer equal-length rows are assembled one at a time


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

    def copy(self) -> "ModelState":
        return ModelState(self.user_factors.copy(), self.item_factors.copy(),
                          self.context_factors.copy(),
                          self.sdae.copy() if self.sdae is not None else None,
                          self.epoch, self.rating_offset)


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


def _solve_spd(gram: np.ndarray, rhs: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Solve one system (K, K) x = (K,), or a stack (n, K, K) x = (n, K), whose
    Grams include `ridge`·I.

    A non-finite system yields a NaN row, which train()'s loss check after the
    block reports as TrainingDivergedError. Each system is factored once, as
    L Lᵀ, and solved from L by forward and back substitution, one column at a
    time across the whole stack. A finite system with no factor is singular
    with no ridge (ValidationError). A positive ridge makes it positive definite,
    so entries far larger than the ridge swamped it: train() reports the
    LinAlgError as divergence.
    """
    finite = np.isfinite(gram).all(axis=(-2, -1)) & np.isfinite(rhs).all(axis=-1)
    if not finite.all():
        out = np.full(rhs.shape, np.nan)
        out[finite] = _solve_spd(gram[finite], rhs[finite], ridge)
        return out
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        if ridge > 0:
            raise
        raise ValidationError(f"singular block system: {exc}") from None
    k = rhs.shape[-1]
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    y = np.empty(rhs.shape)
    for j in range(k):          # L y = rhs
        y[..., j] = (rhs[..., j] - np.einsum("...m,...m->...", chol[..., j, :j],
                                             y[..., :j])) / diag[..., j]
    x = np.empty(rhs.shape)
    for j in range(k - 1, -1, -1):  # Lᵀ x = y
        x[..., j] = (y[..., j] - np.einsum("...m,...m->...", chol[..., j + 1:, j],
                                           x[..., j + 1:])) / diag[..., j]
    return x


def _assemble_chunk(gram: np.ndarray, rhs: np.ndarray, matrix: CsrMatrix,
                    basis: np.ndarray, start: int, stop: int) -> None:
    """Write BᵀB and Bᵀv of each row r of `matrix` in start:stop into
    gram[r - start] and rhs[r - start], zeros for a row with no entries;
    see _solve_rows."""
    k = gram.shape[-1]
    indices, values = matrix.indices, matrix.data
    bounds = matrix.indptr[start:stop + 1]
    lengths = bounds[1:] - bounds[:-1]
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order]
    heads = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(np.append(heads, len(order)))
    per_batch = BATCH_ENTRIES // np.maximum(ordered[heads], k)
    shared = (sizes >= MIN_BATCH_ROWS) & (per_batch >= MIN_BATCH_ROWS) & (ordered[heads] > 0)
    for head, size, per in zip(*(part[shared].tolist() for part in (heads, sizes, per_batch))):
        group = order[head:head + size]
        span = np.arange(lengths[group[0]])
        step = -(-size // -(-size // per))  # as few batches as the cap allows, evenly filled
        for at in range(0, size, step):
            batch = group[at:at + step]
            entries = bounds[batch, None] + span
            rows = basis.take(indices[entries], axis=0)
            gram[batch] = np.matmul(rows.transpose(0, 2, 1), rows)
            rhs[batch] = np.matmul(values[entries][:, None, :], rows)[:, 0]
    empty = lengths == 0
    gram[empty] = 0.0
    rhs[empty] = 0.0
    alone = np.empty(len(order), dtype=bool)
    alone[order] = np.repeat(~shared, sizes)
    bounds = bounds.tolist()
    for r in np.flatnonzero(alone & ~empty).tolist():
        lo, hi = bounds[r], bounds[r + 1]
        rows = basis.take(indices[lo:hi], axis=0)
        np.matmul(rows.T, rows, out=gram[r])
        np.matmul(values[lo:hi], rows, out=rhs[r])


def _solve_rows(out: np.ndarray, ridge: float, terms: list,
                anchor: np.ndarray | None = None) -> list[float]:
    """Write into each row r of `out` the exact ridge solution of

        (Σ_b w_b Σ_{j∈N_b(r)} B_j B_jᵀ + ridge·I) x = Σ_b w_b Σ_{j∈N_b(r)} v_j B_j + ridge·anchor_r

    where each term b is (w_b, S_b, B): S_b is a CsrMatrix whose row r stores
    the neighbours N_b(r) as column indices with values v_j, and the rows of
    the dense matrix B are the vectors B_j those columns index. Without an
    anchor the ridge pulls toward zero. Returns each term's weighted residual
    w_b Σ_r Σ_{j∈N_b(r)} (v_j − x_r·B_j)² at the solved rows x_r.

    Rows are solved in chunks of CHUNK_ROWS, one stacked solve per chunk. For
    each term the chunk's Grams and right-hand sides are assembled in a
    (rows, K, K) and a (rows, K) stack, allocated once per call (a fresh
    multi-megabyte array per chunk is mapped and page-faulted in afresh
    whenever the allocator hands it out from outside its heap):
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
    Then, once per chunk, the term's stacks are scaled by its weight (skipped
    at 1.0); the first term's stacks take ridge on their diagonals and
    ridge·anchor on their right-hand sides, and each later term's stacks are
    added to them.

    So every system is bit-identical (up to the sign of an exact zero) to
    adding each row's w·BᵀB and w·Bᵀv onto ridge·I and ridge·anchor term by
    term: the additions come in the same order, and floating-point addition
    commutes.

    After the solve the later terms, the ridge and the anchor are taken back
    out of the first term's stacks, so that each term's stacks hold its own
    weighted Gram G_r and right-hand side b_r, and its residual is read off
    them as w·Σ v² − 2 x_r·b_r + x_rᵀ G_r x_r: K² per row and no gather.
    """
    n_rows, k = out.shape
    diag = np.arange(k)
    height = min(CHUNK_ROWS, n_rows)
    stacks = [(np.empty((height, k, k)), np.empty((height, k))) for _ in terms]
    residuals = [weight * float(matrix.data @ matrix.data) for weight, matrix, _ in terms]
    for start in range(0, n_rows, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_rows)
        chunk = [(gram[:stop - start], rhs[:stop - start]) for gram, rhs in stacks]
        for (weight, matrix, basis), (term_gram, term_rhs) in zip(terms, chunk):
            _assemble_chunk(term_gram, term_rhs, matrix, basis, start, stop)
            if weight != 1.0:
                term_gram *= weight
                term_rhs *= weight
        gram, rhs = chunk[0]    # the ridge joins before any later term, as in a per-row sum
        gram[:, diag, diag] += ridge
        if anchor is not None:
            rhs += ridge * anchor[start:stop]
        for term_gram, term_rhs in chunk[1:]:
            gram += term_gram
            rhs += term_rhs
        x = out[start:stop]
        x[:] = _solve_spd(gram, rhs, ridge)
        for term_gram, term_rhs in chunk[1:]:
            gram -= term_gram
            rhs -= term_rhs
        gram[:, diag, diag] -= ridge
        if anchor is not None:
            rhs -= ridge * anchor[start:stop]
        for b, (term_gram, term_rhs) in enumerate(chunk):
            residuals[b] += (np.vdot(np.matmul(term_gram, x[..., None]), x)
                             - 2.0 * np.vdot(x, term_rhs))
    return [float(value) for value in residuals]


def predict_ratings(state: ModelState, ratings: RatingDataset, mode: SplitMode,
                    docs: DocTermMatrix | None = None) -> np.ndarray:
    """Predicted rating of each entry of `ratings`, offset included. in_matrix
    reads the item factor table; out_of_matrix encodes every item's clean text
    row once, into an n_items × K table, and reads no item factor. The user
    table and the item table must have one row per user and item of `ratings`.

    θ_u·β_i is formed ENTRY_CHUNK entries at a time, written into the one
    output vector, so no n_entries × K gather and no other n_entries-long
    scratch array is ever held.
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
    for start in range(0, len(out), ENTRY_CHUNK):
        chunk = slice(start, start + ENTRY_CHUNK)
        np.einsum("ij,ij->i", state.user_factors[ratings.users[chunk]],
                  item_table[ratings.items[chunk]], out=out[chunk])
    out += state.rating_offset
    return out


def _pair_residual_sq(matrix: CsrMatrix, beta: np.ndarray, alpha: np.ndarray) -> float:
    """Σ (s_ij − β_i·α_j)² over the stored entries of `matrix`, stored zeros included.

    Each chunk of CHUNK_ROWS rows forms beta[chunk] @ alpha.T and reads its
    stored entries out of that product, so no factor row is gathered per entry:
    temporary memory is a few CHUNK_ROWS·n_items arrays, not 2·nnz·K floats.
    The product costs n_items²·K flops at BLAS speed whatever the density.
    Against the per-entry gather of β_i and α_j (K=32, one BLAS thread) it
    breaks even near 1% density and is 16× faster on a full matrix; the
    co-click PPMIs of the benchmark worlds are 23% and 99.8% dense. Chunks with
    no stored entry are skipped.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    total = 0.0
    for start in range(0, matrix.shape[0], CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, matrix.shape[0])
        lo, hi = indptr[start], indptr[stop]
        if lo == hi:
            continue
        local_rows = np.repeat(np.arange(stop - start), np.diff(indptr[start:stop + 1]))
        resid = data[lo:hi] - (beta[start:stop] @ alpha.T)[local_rows, indices[lo:hi]]
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

    rng = np.random.default_rng(hyper.seed)
    theta = 0.01 * rng.standard_normal((n_users, k))
    if sdae_on:
        params = pretrain(docs.rows, hyper.sdae, k, seed=hyper.seed)
        beta = np.asarray(encode(docs.rows, params))
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

    state = ModelState(theta, beta, alpha, params, 0, offset)
    trace = TrainingTrace(label=run_label(hyper))
    sdae_lr = hyper.sdae.learning_rate if sdae_on else 0.0
    encoding = recon_sq = None
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
            residuals = _solve_rows(out, ridge, block_terms, anchor)
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
    pair = _pair_residual_sq(data.ppmi.matrix, beta, alpha) if hyper.lambda_s > 0 else 0.0
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
            encoding, recon_sq, _ = sdae_pass(params, x0, xc)
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
                lambda_recon=hyper.lambda_recon, lambda_decay=hyper.lambda_decay)
            for value, grad in zip(params.weights + params.biases, grads_w + grads_b):
                value -= sdae_lr * grad     # in place
            encoding, recon_sq, _ = sdae_pass(params, x0, xc)
            loss_end = loss(epoch, autoencoder_terms())
            if loss_end > loss_contexts:
                sdae_lr *= 0.5

        err = split.validation.ratings - predict_ratings(state, split.validation,
                                                         split.mode, docs)
        rmse_val = float(np.sqrt(np.mean(err * err)))
        if not np.isfinite(rmse_val):
            raise TrainingDivergedError(epoch, "validation_rmse")
        state.epoch = epoch
        trace.epochs.append(EpochStats(epoch, loss_users, loss_items, loss_contexts,
                                       loss_end, rmse_val, sdae_lr))
        if rmse_val < trace.best_validation_rmse:
            trace.best_validation_rmse = rmse_val
            trace.best_epoch = epoch
            best_state = state.copy()
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
