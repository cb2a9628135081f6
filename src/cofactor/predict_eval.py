"""Rating prediction in both modes, RMSE, evaluation reports, parameter sweeps.

In-matrix predictions come from user–item factor products. Out-of-matrix
(cold-start) predictions route the item's clean text row through the encoder
and never touch the item or context factor tables.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .corpus import DocTermMatrix, EvalSplit, SplitMode
from .errors import CofactorError, ValidationError
from .factor import Hyperparams, ModelState, TrainData, TrainingTrace, train
from .sdae import SdaeParams, encode


def predict_in_matrix(theta_u: np.ndarray, beta_i: np.ndarray) -> float:
    """Factor product; unclamped."""
    theta_u = np.asarray(theta_u, dtype=np.float64)
    beta_i = np.asarray(beta_i, dtype=np.float64)
    if theta_u.shape != beta_i.shape:
        raise ValidationError(f"factor length mismatch: {theta_u.shape} vs {beta_i.shape}")
    return float(theta_u @ beta_i)


def predict_out_of_matrix(theta_u: np.ndarray, x_item: np.ndarray,
                          sdae: SdaeParams) -> float:
    """User factors against the encoding of the item's clean text row."""
    theta_u = np.asarray(theta_u, dtype=np.float64)
    embedding = np.asarray(encode(np.asarray(x_item, dtype=np.float64), sdae)).ravel()
    if theta_u.shape != embedding.shape:
        raise ValidationError(
            f"factor length {theta_u.shape[0]} != latent width {embedding.shape[0]}")
    return float(theta_u @ embedding)


@dataclass
class PredictionRequest:
    """One prediction to make: an item index for in-matrix requests, a
    bag-of-words row over the trained vocabulary for out-of-matrix ones."""

    user: int
    mode: SplitMode
    item: int | None = None
    text_row: np.ndarray | None = None


def predict(state: ModelState, request: PredictionRequest) -> float:
    """Dispatch a request to the mode's predictor; offset-corrected."""
    theta_u = state.user_factors[request.user]
    if request.mode == "in_matrix":
        if request.item is None:
            raise ValidationError("in_matrix request needs a trained item index")
        value = predict_in_matrix(theta_u, state.item_factors[request.item])
    elif request.mode == "out_of_matrix":
        if request.text_row is None:
            raise ValidationError("out_of_matrix request needs a bag-of-words row")
        if state.sdae is None:
            raise ValidationError("model has no text encoder")
        value = predict_out_of_matrix(theta_u, request.text_row, state.sdae)
    else:
        raise ValidationError(f"unknown mode {request.mode!r}")
    return value + state.rating_offset


def rmse(predictions: Sequence[float], truths: Sequence[float]) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape:
        raise ValidationError(f"length mismatch: {predictions.shape} vs {truths.shape}")
    if predictions.size == 0:
        raise ValidationError("rmse of empty prediction list")
    err = predictions - truths
    return float(np.sqrt(np.mean(err * err)))


@dataclass
class EvalReport:
    mode: SplitMode
    rmse: float
    n_predictions: int
    n_cold_user_predictions: int
    n_missing_text_items: int
    clamp: tuple[float, float] | None = None
    config_fingerprint: str = ""
    trace_ref: str = ""

    def write_text(self, sink: IO[str]) -> None:
        for key, value in dataclasses.asdict(self).items():
            sink.write(f"{key}: {value}\n")

    def write_csv(self, sink: IO[str], lambda_s: float, epoch: int) -> None:
        writer = csv.writer(sink)
        writer.writerow(["mode", "lambda_s", "epoch", "rmse", "n_predictions", "config"])
        writer.writerow([self.mode, lambda_s, epoch, f"{self.rmse:.10g}",
                         self.n_predictions, self.config_fingerprint])


def evaluate(state: ModelState, split: EvalSplit, docs: DocTermMatrix | None = None,
             mode: SplitMode | None = None, clamp: tuple[float, float] | None = None,
             config_fingerprint: str = "", trace_ref: str = "") -> EvalReport:
    """Predict every test pair with the mode's predictor and report RMSE.

    Out-of-matrix reads only user factors and the encoder: items lacking text
    are counted and predicted through their all-zero row.
    """
    mode = mode or split.mode
    test = split.test
    if test.n_entries == 0:
        raise ValidationError("empty test set")
    if mode == "in_matrix":
        pred = np.einsum("ij,ij->i", state.user_factors[test.users],
                         state.item_factors[test.items])
        n_missing_text = 0
    elif mode == "out_of_matrix":
        if docs is None or state.sdae is None:
            raise ValidationError("out_of_matrix evaluation needs documents and the text model")
        unique_items, inverse = np.unique(test.items, return_inverse=True)
        emb = np.asarray(encode(docs.rows[unique_items], state.sdae))
        pred = np.einsum("ij,ij->i", state.user_factors[test.users], emb[inverse])
        per_item_nnz = np.diff(docs.rows.indptr)
        n_missing_text = int((per_item_nnz[unique_items] == 0).sum())
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    pred = pred + state.rating_offset
    if clamp is not None:
        pred = np.clip(pred, clamp[0], clamp[1])
    rated_users = np.unique(split.train.users)
    cold = ~np.isin(test.users, rated_users)
    return EvalReport(mode=mode, rmse=rmse(pred, test.ratings),
                      n_predictions=test.n_entries,
                      n_cold_user_predictions=int(cold.sum()),
                      n_missing_text_items=n_missing_text,
                      clamp=clamp, config_fingerprint=config_fingerprint,
                      trace_ref=trace_ref)


@dataclass
class SweepPoint:
    lambda_s: float
    validation_rmse: float
    test_rmse: float


def sweep_lambda_s(data: TrainData, hyper: Hyperparams,
                   grid: Sequence[float]) -> list[SweepPoint]:
    """Train once per grid value with shared seed and data; report both RMSEs."""
    if len(grid) == 0:
        raise ValidationError("empty lambda_s grid")
    points = []
    for lam in grid:
        run_hyper = dataclasses.replace(hyper, lambda_s=float(lam))
        try:
            state, trace = train(data, run_hyper)
        except CofactorError as exc:
            raise CofactorError(f"lambda_s={lam}: {exc}") from exc
        report = evaluate(state, data.split, data.docs)
        points.append(SweepPoint(lambda_s=float(lam),
                                 validation_rmse=trace.best_validation_rmse,
                                 test_rmse=report.rmse))
    return points


def write_trace_csv(trace: TrainingTrace, sink: IO[str],
                    config_fingerprint: str = "") -> None:
    """Per-epoch trace; the comment line names the run and config."""
    sink.write(f"# run: {trace.label}, config: {config_fingerprint}\n")
    writer = csv.writer(sink)
    writer.writerow(["epoch", "loss_after_users", "loss_after_items",
                     "loss_after_contexts", "loss_epoch_end", "validation_rmse",
                     "sdae_lr"])
    for e in trace.epochs:
        writer.writerow([e.epoch, f"{e.loss_after_users:.17g}",
                         f"{e.loss_after_items:.17g}", f"{e.loss_after_contexts:.17g}",
                         f"{e.loss_epoch_end:.17g}", f"{e.validation_rmse:.17g}",
                         f"{e.sdae_lr:.17g}"])


def write_sweep_csv(points: Sequence[SweepPoint], sink: IO[str],
                    config_fingerprint: str = "") -> None:
    writer = csv.writer(sink)
    writer.writerow(["lambda_s", "validation_rmse", "test_rmse", "config"])
    for p in points:
        writer.writerow([p.lambda_s, f"{p.validation_rmse:.10g}",
                         f"{p.test_rmse:.10g}", config_fingerprint])


def save_report(report: EvalReport, text_path: str | Path, csv_path: str | Path,
                lambda_s: float, epoch: int) -> None:
    with open(text_path, "w", encoding="utf-8") as fh:
        report.write_text(fh)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        report.write_csv(fh, lambda_s, epoch)
