"""Rating prediction in both modes, RMSE, evaluation reports, parameter sweeps.

In-matrix predictions come from user–item factor products. Out-of-matrix
(cold-start) predictions route the item's clean text row through the encoder
and never touch the item or context factor tables.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from typing import IO, Callable, Sequence

import numpy as np

from .corpus import DocTermMatrix, EvalSplit, SplitMode
from .errors import CofactorError, ValidationError
from .factor import (Hyperparams, ModelState, TrainData, TrainingTrace,
                     predict_ratings, train)


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
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["mode", "lambda_s", "epoch", "rmse", "n_predictions", "config"])
        writer.writerow([self.mode, lambda_s, epoch, f"{self.rmse:.10g}",
                         self.n_predictions, self.config_fingerprint])


def evaluate(state: ModelState, split: EvalSplit, docs: DocTermMatrix | None = None,
             clamp: tuple[float, float] | None = None,
             config_fingerprint: str = "", trace_ref: str = "") -> EvalReport:
    """Predict every test pair with the split mode's predictor and report RMSE.

    Out-of-matrix reads only user factors and the encoder: items lacking text
    are counted and predicted through their all-zero row.
    """
    mode = split.mode
    test = split.test
    pred = predict_ratings(state, test, mode, docs)
    n_missing_text = 0
    if mode == "out_of_matrix":
        no_text = np.diff(docs.rows.indptr) == 0
        tested = np.bincount(test.items, minlength=len(no_text)) > 0
        n_missing_text = int(np.count_nonzero(tested & no_text))
    if clamp is not None:
        pred = np.clip(pred, clamp[0], clamp[1])
    rated = np.bincount(split.train.users, minlength=test.n_users) > 0
    cold = ~rated[test.users]
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


@dataclass
class SparsityPoint:
    percent: float              # of the ratings kept
    joint_test_rmse: float
    pmf_test_rmse: float


def _train_and_score(data: TrainData, hyper: Hyperparams) -> tuple[float, float]:
    """(best validation RMSE, test RMSE) of one training run."""
    state, trace = train(data, hyper)
    return trace.best_validation_rmse, evaluate(state, data.split, data.docs).rmse


def _sweep(name: str, grid: Sequence[float], run_point: Callable) -> list:
    """run_point(value) per grid value; an error names the value that raised it."""
    if len(grid) == 0:
        raise ValidationError(f"empty {name} grid")
    points = []
    for value in grid:
        try:
            points.append(run_point(value))
        except CofactorError as exc:
            raise CofactorError(f"{name}={value}: {exc}") from exc
    return points


def sweep_lambda_s(data: TrainData, hyper: Hyperparams,
                   grid: Sequence[float]) -> list[SweepPoint]:
    """Train once per grid value with shared seed and data; report both RMSEs."""
    return _sweep("lambda_s", grid, lambda lam: SweepPoint(
        float(lam), *_train_and_score(data, dataclasses.replace(hyper, lambda_s=float(lam)))))


def sweep_sparsity(make_data: Callable[[float], TrainData], hyper: Hyperparams,
                   percents: Sequence[float]) -> list[SparsityPoint]:
    """Per rating percentage, the test RMSE of the joint and of the ratings-only
    model on one subsample. `make_data(fraction)` is called as each point is
    reached, so only one split and one PPMI matrix are alive at a time. At λ_s
    0 without a text model train() reads no PPMI and no documents: the joint
    run is then the ratings-only run, trained once and scored for both."""
    pmf_hyper = dataclasses.replace(hyper, lambda_s=0.0, sdae=None)

    def point(pct: float) -> SparsityPoint:
        data = make_data(pct / 100.0)
        joint = _train_and_score(data, hyper)[1]
        if pmf_hyper == hyper:
            return SparsityPoint(pct, joint, joint)
        return SparsityPoint(pct, joint,
                             _train_and_score(TrainData(split=data.split), pmf_hyper)[1])

    return _sweep("sparsity_percent", percents, point)


def write_trace_csv(trace: TrainingTrace, sink: IO[str],
                    config_fingerprint: str = "") -> None:
    """Per-epoch trace; the comment line names the run and config."""
    sink.write(f"# run: {trace.label}, config: {config_fingerprint}\n")
    writer = csv.writer(sink, lineterminator="\n")
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
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["lambda_s", "validation_rmse", "test_rmse", "config"])
    for p in points:
        writer.writerow([p.lambda_s, f"{p.validation_rmse:.10g}",
                         f"{p.test_rmse:.10g}", config_fingerprint])


def write_sparsity_csv(points: Sequence[SparsityPoint], sink: IO[str], label: str,
                       config_fingerprint: str = "") -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["label", "fraction", "joint_test_rmse", "pmf_test_rmse", "config"])
    writer.writerows([f"{label}-{p.percent:g}", f"{p.percent / 100.0:g}",
                      f"{p.joint_test_rmse:.10g}", f"{p.pmf_test_rmse:.10g}",
                      config_fingerprint] for p in points)
