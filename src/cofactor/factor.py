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
from .errors import (CheckpointError, CofactorError, TrainingDivergedError,
                     ValidationError)
from .ppmi import PpmiMatrix
from .sdae import (SdaeConfig, SdaeParams, corrupt, encode, is_int, pretrain, sdae_pass,
                   stack_widths)
from .sparse import CHUNK_ROWS, CsrMatrix, from_coo

CHECKPOINT_VERSION = 1

ENTRY_CHUNK = CHUNK_ROWS * 16  # rating entries per chunk of the θ_u·β_i gathers


class NonFiniteLossError(CofactorError):
    """A loss term evaluated to a non-finite value."""

    def __init__(self, term: str):
        self.term = term
        super().__init__(f"loss term {term!r} is non-finite")


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


def _solve_rows(out: np.ndarray, ridge: float, terms: list,
                anchor: np.ndarray | None = None) -> None:
    """Write into each row r of `out` the exact ridge solution of

        (Σ_b w_b Σ_{j∈N_b(r)} B_j B_jᵀ + ridge·I) x = Σ_b w_b Σ_{j∈N_b(r)} v_j B_j + ridge·anchor_r

    where each term b is (w_b, S_b, B): S_b is a CsrMatrix whose row r stores
    the neighbours N_b(r) as column indices with values v_j, and the rows of
    the dense matrix B are the vectors B_j those columns index. Without an
    anchor the ridge pulls toward zero.

    Rows are solved in chunks of CHUNK_ROWS, one stacked solve per chunk. For
    each term the chunk's Grams and right-hand sides are assembled in place in
    a zeroed (rows, K, K) and (rows, K) stack: per stored row, one gather of
    its basis rows and two BLAS products written straight into the row's
    slot. Each term's two stacks are allocated once per call and zeroed per
    chunk: a fresh multi-megabyte array per chunk is mapped and page-faulted
    in afresh whenever the allocator hands it out from outside its heap.
    Then, once per chunk, the term's stacks are scaled by its weight
    (skipped at 1.0); the first term's stacks take ridge on their diagonals
    and ridge·anchor on their right-hand sides, and each later term's stacks
    are added to them. The gather stays per row, so no more than one row's
    neighbours of a dense PPMI are ever gathered at once.

    So every system is bit-identical (up to the sign of an exact zero) to
    adding each row's w·BᵀB and w·Bᵀv onto ridge·I and ridge·anchor term by
    term: the additions come in the same order, and floating-point addition
    commutes.
    """
    n_rows, k = out.shape
    diag = np.arange(k)
    height = min(CHUNK_ROWS, n_rows)
    stacks = [(np.empty((height, k, k)), np.empty((height, k))) for _ in terms]
    for start in range(0, n_rows, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_rows)
        gram = rhs = None
        for (weight, matrix, basis), (gram_stack, rhs_stack) in zip(terms, stacks):
            term_gram, term_rhs = gram_stack[:stop - start], rhs_stack[:stop - start]
            term_gram.fill(0.0)
            term_rhs.fill(0.0)
            indices, values = matrix.indices, matrix.data
            bounds = matrix.indptr[start:stop + 1].tolist()
            for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                if lo < hi:
                    rows = basis.take(indices[lo:hi], axis=0)
                    np.matmul(rows.T, rows, out=term_gram[r])
                    np.matmul(values[lo:hi], rows, out=term_rhs[r])
            if weight != 1.0:
                term_gram *= weight
                term_rhs *= weight
            if gram is None:    # the ridge joins before any later term, as in a per-row sum
                gram, rhs = term_gram, term_rhs
                gram[:, diag, diag] += ridge
                if anchor is not None:
                    rhs += ridge * anchor[start:stop]
            else:
                gram += term_gram
                rhs += term_rhs
        out[start:stop] = _solve_spd(gram, rhs, ridge)


def _entry_chunks(n_entries: int):
    """Slices of ENTRY_CHUNK entries covering range(n_entries)."""
    return (slice(start, start + ENTRY_CHUNK) for start in range(0, n_entries, ENTRY_CHUNK))


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
    for chunk in _entry_chunks(len(out)):
        np.einsum("ij,ij->i", state.user_factors[ratings.users[chunk]],
                  item_table[ratings.items[chunk]], out=out[chunk])
    out += state.rating_offset
    return out


def _check_finite(value: float, term: str) -> float:
    if not np.isfinite(value):
        raise NonFiniteLossError(term)
    return value


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


def _check_ppmi(ppmi: PpmiMatrix | None, n_items: int) -> None:
    """λ_s > 0 alone switches the click term on; it needs a PPMI over the n_items items."""
    if ppmi is None:
        raise ValidationError("lambda_s > 0 but no PPMI matrix supplied")
    if ppmi.matrix.shape != (n_items, n_items):
        raise ValidationError(f"PPMI matrix of shape {ppmi.matrix.shape} does not "
                              f"match the {n_items} items of the item factors")


def _sum_sq(array: np.ndarray) -> float:
    return float((array * array).sum())


def total_loss(state: ModelState, ratings, ppmi: PpmiMatrix | None,
               encoding: np.ndarray | None, recon_sq: float | None,
               hyper: Hyperparams, *, known: dict[str, float] | None = None) -> float:
    """Full joint loss; rating values are centered by the state's offset.
    With the text model on, `(encoding, recon_sq)` are the first two outputs
    of sdae_pass for the state's autoencoder; without it both are None.

    The rating term gathers θ_u and β_i ENTRY_CHUNK entries at a time and
    subtracts their dot products from one n_entries-long residual, whose
    squared norm is then a single product, so its value does not depend on
    the chunking; the pair term is row-chunked (_pair_residual_sq).

    `known` maps term names to values already computed for this same state.
    A term found there is reused, and every other term is computed, checked
    finite and added to it. The terms are summed in one fixed order, so the
    total does not depend on which of them were reused.
    """
    known = {} if known is None else known
    theta, beta, alpha = state.user_factors, state.item_factors, state.context_factors

    def term(name: str, compute) -> float:
        if name not in known:
            known[name] = _check_finite(compute(), name)
        return known[name]

    def rating() -> float:
        resid = ratings.ratings - state.rating_offset
        for chunk in _entry_chunks(len(resid)):
            resid[chunk] -= np.einsum("ij,ij->i", theta[ratings.users[chunk]],
                                      beta[ratings.items[chunk]])
        return 0.5 * float(resid @ resid)

    loss = term("rating", rating)
    if hyper.lambda_s > 0:
        _check_ppmi(ppmi, beta.shape[0])
        loss += term("pair", lambda: 0.5 * hyper.lambda_s
                     * _pair_residual_sq(ppmi.matrix, beta, alpha))
    loss += term("user_reg", lambda: 0.5 * hyper.lambda_user * _sum_sq(theta))
    loss += term("context_reg", lambda: 0.5 * hyper.lambda_context * _sum_sq(alpha))
    if state.sdae is not None:
        loss += term("item_anchor", lambda: 0.5 * hyper.lambda_item * _sum_sq(beta - encoding))
        loss += term("reconstruction", lambda: 0.5 * hyper.lambda_recon * recon_sq)
        loss += term("decay", lambda: 0.5 * hyper.lambda_decay * state.sdae.squared_norm())
    else:
        loss += term("item_reg", lambda: 0.5 * hyper.lambda_item * _sum_sq(beta))
    return _check_finite(loss, "total")


# the loss terms that read the autoencoder's weights or its forward pass
_AUTOENCODER_TERMS = ("item_anchor", "reconstruction", "decay")


def train(data: TrainData, hyper: Hyperparams) -> tuple[ModelState, TrainingTrace]:
    """Alternate user / item-feature / item-context solves and one autoencoder
    gradient step per epoch; stop on stale validation RMSE; return the state
    of the best validation epoch plus the per-epoch trace.

    With the text model on, an epoch runs three autoencoder passes: a forward
    pass (item anchor, per-block losses), the gradient pass, and a forward pass
    after the step (epoch-end loss). Only the autoencoder moves between the
    last two losses; the learning rate halves when the step raised the loss.
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
    if hyper.lambda_s > 0:
        _check_ppmi(data.ppmi, n_items)
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
    known: dict[str, float] = {}    # loss terms of the current state

    def loss_now(epoch: int, changed: tuple[str, ...]) -> float:
        """total_loss, recomputing only the `changed` terms and any not yet known."""
        for name in changed:
            known.pop(name, None)
        try:
            return total_loss(state, train_ds, data.ppmi, encoding, recon_sq, hyper,
                              known=known)
        except NonFiniteLossError as exc:
            raise TrainingDivergedError(epoch, exc.term) from None

    def solve(epoch: int, block: str, out, ridge: float, terms, anchor=None) -> None:
        try:
            _solve_rows(out, ridge, terms, anchor)
        except np.linalg.LinAlgError:
            raise TrainingDivergedError(epoch, block, block=True) from None

    for epoch in range(1, hyper.max_epochs + 1):
        if sdae_on:
            xc = docs.rows
            x0 = corrupt(xc, hyper.sdae.noise_rate,
                         np.random.SeedSequence(entropy=hyper.seed, spawn_key=(epoch,)))
            encoding, recon_sq, _ = sdae_pass(params, x0, xc)

        solve(epoch, "user", theta, hyper.lambda_user, user_terms)
        # the forward pass above moved the autoencoder terms too
        loss_users = loss_now(epoch, ("rating", "user_reg", *_AUTOENCODER_TERMS))
        solve(epoch, "item", beta, hyper.lambda_item, item_terms, encoding)
        loss_items = loss_now(epoch, ("rating", "pair", "item_anchor", "item_reg"))
        if context_terms:
            solve(epoch, "context", alpha, hyper.lambda_context, context_terms)
        else:
            alpha[:] = 0.0
        loss_contexts = loss_now(epoch, ("pair", "context_reg"))

        if sdae_on:
            _, _, (grads_w, grads_b) = sdae_pass(
                params, x0, xc, beta, lambda_anchor=hyper.lambda_item,
                lambda_recon=hyper.lambda_recon, lambda_decay=hyper.lambda_decay)
            for value, grad in zip(params.weights + params.biases, grads_w + grads_b):
                value -= sdae_lr * grad     # in place
            encoding, recon_sq, _ = sdae_pass(params, x0, xc)
        loss_end = loss_now(epoch, _AUTOENCODER_TERMS)
        if sdae_on and loss_end > loss_contexts:
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
