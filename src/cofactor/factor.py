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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .container import read_container, write_container
from .corpus import DocTermMatrix, EvalSplit, RatingDataset, SplitMode
from .errors import (CheckpointError, CofactorError, TrainingDivergedError,
                     ValidationError)
from .ppmi import PpmiMatrix
from .sdae import SdaeConfig, SdaeParams, corrupt, encode, pretrain, sdae_pass
from .sparse import CHUNK_ROWS, CsrMatrix, from_coo

CHECKPOINT_VERSION = 1


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
    """Inputs of one training run; the PPMI matrix comes from training clicks."""

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
    anchor the ridge pulls toward zero. Rows are solved in chunks of
    CHUNK_ROWS, one stacked solve per chunk.
    """
    n_rows, k = out.shape
    terms = [(weight, matrix.indptr, matrix.indices, matrix.data, basis)
             for weight, matrix, basis in terms]
    for start in range(0, n_rows, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n_rows)
        gram = np.repeat(ridge * np.eye(k)[None], stop - start, axis=0)
        rhs = np.zeros((stop - start, k)) if anchor is None else ridge * anchor[start:stop]
        for weight, indptr, indices, values, basis in terms:
            bounds = indptr[start:stop + 1].tolist()
            for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                if lo < hi:
                    rows = basis[indices[lo:hi]]
                    gram[r] += weight * (rows.T @ rows)
                    rhs[r] += weight * (rows.T @ values[lo:hi])
        out[start:stop] = _solve_spd(gram, rhs, ridge)


def predict_ratings(state: ModelState, ratings: RatingDataset, mode: SplitMode,
                    docs: DocTermMatrix | None = None) -> np.ndarray:
    """Predicted rating of each entry of `ratings`, offset included. out_of_matrix
    encodes each distinct item's clean text row once and reads no item factor."""
    if mode == "in_matrix":
        item_vectors = state.item_factors[ratings.items]
    elif mode == "out_of_matrix":
        if docs is None or state.sdae is None:
            raise ValidationError("out_of_matrix prediction needs documents and the text model")
        unique_items, inverse = np.unique(ratings.items, return_inverse=True)
        item_vectors = np.asarray(encode(docs.rows[unique_items], state.sdae))[inverse]
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return (np.einsum("ij,ij->i", state.user_factors[ratings.users], item_vectors)
            + state.rating_offset)


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


def _sum_sq(array: np.ndarray) -> float:
    return float((array * array).sum())


def total_loss(state: ModelState, ratings, ppmi: PpmiMatrix | None,
               encoding: np.ndarray | None, recon_sq: float | None,
               hyper: Hyperparams, *, known: dict[str, float] | None = None) -> float:
    """Full joint loss; rating values are centered by the state's offset.
    With the text model on, `(encoding, recon_sq)` are the first two outputs
    of sdae_pass for the state's autoencoder; without it both are None.

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
        resid = (ratings.ratings - state.rating_offset
                 - np.einsum("ij,ij->i", theta[ratings.users], beta[ratings.items]))
        return 0.5 * float(resid @ resid)

    loss = term("rating", rating)
    if hyper.lambda_s > 0 and ppmi is not None:
        n_items = beta.shape[0]
        if ppmi.matrix.shape != (n_items, n_items):
            raise ValidationError(f"PPMI matrix of shape {ppmi.matrix.shape} does not "
                                  f"match the {n_items} items of the item factors")
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
    if hyper.lambda_s > 0 and data.ppmi is not None:
        if data.ppmi.n_items != n_items:
            raise ValidationError("PPMI matrix size does not match item count")
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


def save_checkpoint(path: str | Path, state: ModelState, hyper: Hyperparams, *,
                    user_ids: tuple[str, ...], item_ids: tuple[str, ...],
                    vocab: tuple[str, ...] = (),
                    config_fingerprint: str = "",
                    best_validation_rmse: float | None = None,
                    split_record: dict | None = None) -> None:
    """Versioned binary checkpoint: manifest header plus little-endian float64 arrays.
    `split_record` names the settings that drew the training split."""
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "n_users": state.user_factors.shape[0],
        "n_items": state.item_factors.shape[0],
        "n_factors": state.user_factors.shape[1],
        "vocab_size": len(vocab),
        "layer_widths": state.sdae.layer_widths if state.sdae is not None else [],
        "hyper": dataclasses.asdict(hyper),
        "epoch": state.epoch,
        "rating_offset": state.rating_offset,
        "run": run_label(hyper),
        "config_fingerprint": config_fingerprint,
        "best_validation_rmse": best_validation_rmse,
        "user_ids": list(user_ids),
        "item_ids": list(item_ids),
        "vocab": list(vocab),
        "split": split_record,
    }
    arrays = {
        "user_factors": state.user_factors,
        "item_factors": state.item_factors,
        "context_factors": state.context_factors,
    }
    if state.sdae is not None:
        for layer in range(state.sdae.n_layers):
            arrays[f"sdae_w_{layer}"] = state.sdae.weights[layer]
            arrays[f"sdae_b_{layer}"] = state.sdae.biases[layer]
    write_container(path, meta, arrays)


def load_checkpoint(path: str | Path) -> tuple[ModelState, Hyperparams, dict]:
    """Read and validate a checkpoint; returns (state, hyperparams, meta)."""
    meta, arrays = read_container(path)
    if meta.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {meta.get('format_version')!r}")
    try:
        hyper = _hyper_from_dict(meta["hyper"])
    except (TypeError, ValueError, ValidationError) as exc:
        raise CheckpointError(f"{path}: bad hyperparameters: {exc}") from None
    theta = arrays["user_factors"]
    beta = arrays["item_factors"]
    alpha = arrays["context_factors"]
    if theta.shape != (meta["n_users"], meta["n_factors"]):
        raise CheckpointError(f"{path}: user factor shape {theta.shape} does not match manifest")
    if beta.shape != alpha.shape or beta.shape != (meta["n_items"], meta["n_factors"]):
        raise CheckpointError(f"{path}: item factor shapes do not match manifest")
    widths = meta["layer_widths"]
    sdae_params = None
    if widths:
        weights, biases = [], []
        for layer in range(len(widths) - 1):
            w = arrays[f"sdae_w_{layer}"]
            b = arrays[f"sdae_b_{layer}"]
            if w.shape != (widths[layer], widths[layer + 1]) or b.shape != (widths[layer + 1],):
                raise CheckpointError(f"{path}: autoencoder layer {layer} shape mismatch")
            weights.append(w)
            biases.append(b)
        sdae_params = SdaeParams(weights=weights, biases=biases)
    state = ModelState(theta, beta, alpha, sdae_params,
                       epoch=meta["epoch"], rating_offset=meta["rating_offset"])
    return state, hyper, meta
