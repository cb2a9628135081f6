"""Command-line orchestration: ingest, train, eval, sweep.

Every experiment is driven by one JSON config file; command-line flags
override config keys (flag > config > default). The resolved config's
fingerprint is stamped into every artifact a run writes. Exit codes:
0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import corpus, ppmi
from .container import read_container, write_container
from .errors import CheckpointError, CofactorError, ValidationError
from .factor import (Hyperparams, TrainData, load_checkpoint, run_label,
                     save_checkpoint, train)
from .predict_eval import (evaluate, sweep_lambda_s, sweep_sparsity,
                           write_sparsity_csv, write_sweep_csv, write_trace_csv)
from .sdae import SdaeConfig, positive_widths, stack_widths
from .sparse import CsrMatrix

DEFAULT_CONFIG = {
    "paths": {"ratings": None, "clicks": None, "documents": None, "output_dir": "out"},
    "dataset_label": "data",
    "seed": 0,
    "synthetic": None,
    "subsample_fraction": 1.0,
    "split": {"mode": "in_matrix", "test_fraction": 0.2, "validation_fraction": 0.08},
    # the library's defaults; the text section and the top-level seed set sdae and seed
    "hyper": {f.name: f.default for f in dataclasses.fields(Hyperparams)
              if f.name not in ("sdae", "seed")},
    "text": {"enabled": True, "vocab_size": 8000, "bow_scheme": "tfidf",
             "hidden_widths": [200],
             **{f.name: f.default for f in dataclasses.fields(SdaeConfig)
                if f.default is not dataclasses.MISSING}},
    "sweep": {"lambda_s_grid": [0.001, 0.01, 0.1, 1.0, 10.0, 100.0],
              "sparsity_grid": [10, 20, 50, 80]},
    "flags": {"clamp": None},
}


class ConfigError(CofactorError):
    """Unusable run configuration (maps to exit code 2)."""


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}

# the type of the values other than null of each key whose default is None
_NULL_DEFAULT_TYPES = {"paths.ratings": str, "paths.clicks": str, "paths.documents": str,
                       "synthetic": dict, "flags.clamp": list}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_type(default, value, name: str) -> None:
    """A key takes values of its default's type; one whose default is None takes
    null or its type in _NULL_DEFAULT_TYPES. An integer is also a valid float, a
    bool is neither. Lists hold numbers."""
    if default is None:
        expected = _NULL_DEFAULT_TYPES[name]
        if value is not None and not isinstance(value, expected):
            raise ConfigError(f"config key {name!r} must be {_TYPE_NAMES[expected]} or null, "
                              f"got {json.dumps(value)}")
        return
    expected = (int, float) if isinstance(default, float) else type(default)
    if not isinstance(value, expected) or isinstance(value, bool) != isinstance(default, bool):
        raise ConfigError(f"config key {name!r} must be {_TYPE_NAMES[type(default)]}, "
                          f"got {json.dumps(value)}")
    if isinstance(value, list) and not all(map(_is_number, value)):
        raise ConfigError(f"config key {name!r} must be a list of numbers, "
                          f"got {json.dumps(value)}")


def _merge(base: dict, override: dict, context: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise ConfigError(f"unknown config key {context + key!r}")
        _check_type(out[key], value, context + key)
        if isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _merge(out[key], value, context + key + ".")
        else:
            out[key] = value
    return out


def _check_values(cfg: dict, set_by: dict[str, str]) -> None:
    """Reject values of the right type that no run can use. The error names the
    flag that set the key (`set_by` maps keys to flags), else the config key."""
    clamp = cfg["flags"]["clamp"]
    split = cfg["split"]
    for key, ok, requirement in (
            ("seed", cfg["seed"] >= 0, "a nonnegative integer"),
            ("subsample_fraction", 0 < cfg["subsample_fraction"] <= 1, "a number in (0, 1]"),
            ("split.mode", split["mode"] in ("in_matrix", "out_of_matrix"),
             "'in_matrix' or 'out_of_matrix'"),
            ("split.test_fraction", 0 < split["test_fraction"] < 1, "a number in (0, 1)"),
            ("split.validation_fraction", 0 < split["validation_fraction"] < 1,
             "a number in (0, 1)"),
            ("split.validation_fraction",
             split["test_fraction"] + split["validation_fraction"] < 1,
             "below 1 - split.test_fraction, leaving ratings to train on"),
            ("text.vocab_size", cfg["text"]["vocab_size"] >= 1, "a positive integer"),
            ("text.hidden_widths", positive_widths(cfg["text"]["hidden_widths"]),
             "a list of positive integers"),
            ("sweep.lambda_s_grid",
             all(0 <= v < float("inf") for v in cfg["sweep"]["lambda_s_grid"]),
             "a list of finite nonnegative numbers"),
            ("sweep.sparsity_grid", all(0 < p <= 100 for p in cfg["sweep"]["sparsity_grid"]),
             "a list of percentages in (0, 100]"),
            ("flags.clamp",
             clamp is None or (len(clamp) == 2 and all(map(_is_number, clamp))
                               and clamp[0] < clamp[1]),
             "two numbers lo < hi")):
        if not ok:
            section, _, field = key.rpartition(".")
            value = (cfg[section] if section else cfg)[field]
            name = set_by.get(key, f"config key {key!r}")
            raise ConfigError(f"{name} must be {requirement}, got {json.dumps(value)}")


def _numbers(text: str, flag: str) -> list[float]:
    """The numbers of a comma-separated flag value."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"is not UTF-8 text: {exc.reason} (byte 0x{exc.object[exc.start]:02x})"


def load_config(path: str, overrides: argparse.Namespace) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user_cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config file {path} is a directory") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} {_not_utf8(exc)}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(user_cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    cfg = _merge(DEFAULT_CONFIG, user_cfg)
    set_by = {}
    if getattr(overrides, "seed", None) is not None:
        cfg["seed"] = overrides.seed
        set_by["seed"] = "--seed"
    if getattr(overrides, "mode", None) is not None:
        cfg["split"]["mode"] = {"in": "in_matrix", "out": "out_of_matrix"}[overrides.mode]
    if getattr(overrides, "lambda_s_grid", None) is not None:
        cfg["sweep"]["lambda_s_grid"] = _numbers(overrides.lambda_s_grid, "--lambda-s-grid")
        set_by["sweep.lambda_s_grid"] = "--lambda-s-grid"
    if getattr(overrides, "sparsity_grid", None) is not None:
        cfg["sweep"]["sparsity_grid"] = _numbers(overrides.sparsity_grid, "--sparsity-grid")
        set_by["sweep.sparsity_grid"] = "--sparsity-grid"
    if getattr(overrides, "clamp", None) is not None:
        cfg["flags"]["clamp"] = _numbers(overrides.clamp, "--clamp")
        set_by["flags.clamp"] = "--clamp"
    _check_values(cfg, set_by)
    return cfg


def fingerprint(cfg: dict) -> str:
    """Hash of the resolved config."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _make_dir(path: Path, name: str) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"{name} is not a directory: {path}") from None
    return path


def _out_dir(cfg: dict) -> Path:
    return _make_dir(Path(cfg["paths"]["output_dir"]), "paths.output_dir")


def _cache_dir(cfg: dict) -> Path:
    return _make_dir(_out_dir(cfg) / "cache", "the cache under paths.output_dir")


def _require_path(cfg: dict, key: str) -> Path:
    value = cfg["paths"].get(key)
    if not value:
        raise ConfigError(f"config paths.{key} is not set")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"paths.{key} does not exist: {path}")
    if not path.is_file():
        raise ConfigError(f"paths.{key} is not a file: {path}")
    return path


def _parse_input(cfg: dict, key: str, parse: Callable, *args):
    """parse(stream, *args) of the UTF-8 text file named by paths.<key>."""
    path = _require_path(cfg, key)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh, *args)
        except UnicodeDecodeError as exc:
            raise CofactorError(f"paths.{key} {path} {_not_utf8(exc)}") from None


# ---------------------------------------------------------------- ingest

def _write_ingest(cfg: dict, ratings: corpus.RatingDataset, clicks: CsrMatrix | None,
                  docs: corpus.DocTermMatrix | None, **extra) -> int:
    """Cache the parsed or generated datasets, then write and print the report.
    A clicks or docs cache this ingest does not write is deleted, so a later
    train never reads a previous ingest's data."""
    cache = _cache_dir(cfg)
    for name, dataset in (("clicks.bin", clicks), ("docs.bin", docs)):
        if dataset is None:
            (cache / name).unlink(missing_ok=True)
    report = {"config": fingerprint(cfg), "n_users": ratings.n_users,
              "n_items": ratings.n_items, "n_ratings": ratings.n_entries, **extra}
    write_container(cache / "ratings.bin",
                    {"kind": "ratings", "user_ids": list(ratings.user_ids),
                     "item_ids": list(ratings.item_ids)},
                    {"users": ratings.users, "items": ratings.items,
                     "ratings": ratings.ratings})
    if clicks is not None:
        write_container(cache / "clicks.bin", {"kind": "clicks"},
                        {"indptr": clicks.indptr, "indices": clicks.indices})
        report["n_clicks"] = clicks.nnz
    if docs is not None:
        write_container(cache / "docs.bin", {"kind": "docs", "vocab": list(docs.vocab)},
                        {"data": docs.rows.data, "indices": docs.rows.indices,
                         "indptr": docs.rows.indptr})
        report["vocab_size"] = docs.vocab_size
    (cache / "ingest_report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    for key in sorted(report):
        print(f"{key}: {report[key]}")
    return 0


def cmd_ingest(cfg: dict) -> int:
    if cfg["synthetic"] is not None:
        try:
            config = corpus.SyntheticConfig(**cfg["synthetic"])
        except (TypeError, ValidationError) as exc:
            raise ConfigError(f"bad synthetic config: {exc}") from None
        ratings, clicks, docs, _ = corpus.generate_synthetic(config, seed=cfg["seed"])
        return _write_ingest(cfg, ratings, clicks, docs, synthetic=True)
    ratings = _parse_input(cfg, "ratings", corpus.parse_ratings)
    clicks = docs = None
    extra = {}
    if cfg["paths"]["clicks"]:
        clicks, extra["n_clicks_dropped"] = _parse_input(
            cfg, "clicks", corpus.parse_clicks, ratings.user_index_map, ratings.item_index_map)
    if cfg["paths"]["documents"] and cfg["text"]["enabled"]:
        docs = _parse_input(cfg, "documents", corpus.parse_documents,
                            cfg["text"]["vocab_size"], cfg["text"]["bow_scheme"],
                            ratings.item_index_map)
        extra["n_documents"] = int((np.diff(docs.rows.indptr) > 0).sum())
    return _write_ingest(cfg, ratings, clicks, docs, **extra)


def _read_cache(path: Path, build: Callable):
    """build(meta, arrays) of the cache file at `path`, None without one. The
    datasets check themselves when built, shaped by ratings.bin's id tables:
    their ValidationError names the array, and the CheckpointError raised for
    it names the file too."""
    if not path.exists():
        return None
    meta, arrays = read_container(path)
    try:
        return build(meta, arrays)
    except ValidationError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _load_cached_ratings(cache: Path) -> corpus.RatingDataset:
    path = cache / "ratings.bin"
    ratings = _read_cache(path, lambda meta, arrays: corpus.RatingDataset(
        arrays["users"], arrays["items"], arrays["ratings"],
        meta.strings("user_ids"), meta.strings("item_ids")))
    if ratings is None:
        raise ConfigError(f"no ingested ratings at {path}; run `cofactor ingest` first")
    return ratings


def _load_cached_clicks(cache: Path, ratings: corpus.RatingDataset) -> CsrMatrix | None:
    return _read_cache(cache / "clicks.bin", lambda meta, arrays: CsrMatrix(
        (ratings.n_users, ratings.n_items), arrays["indptr"], arrays["indices"],
        np.ones(len(arrays["indices"]), dtype=np.int64)))


def _load_cached_docs(cache: Path, ratings: corpus.RatingDataset) -> corpus.DocTermMatrix | None:
    return _read_cache(cache / "docs.bin", lambda meta, arrays: corpus.DocTermMatrix(
        meta.strings("vocab"), CsrMatrix((ratings.n_items, len(meta["vocab"])),
                                         arrays["indptr"], arrays["indices"], arrays["data"])))


# ----------------------------------------------------------------- train

def _build_hyper(cfg: dict, docs: corpus.DocTermMatrix | None) -> Hyperparams:
    text = cfg["text"]
    if text["enabled"] and docs is None:
        raise ConfigError("text.enabled is true but no documents were ingested")
    try:
        sdae = (SdaeConfig(hidden_widths=list(text["hidden_widths"]),
                           noise_rate=text["noise_rate"],
                           pretrain_epochs=text["pretrain_epochs"],
                           learning_rate=text["learning_rate"])
                if text["enabled"] else None)
        return Hyperparams(sdae=sdae, seed=cfg["seed"], **cfg["hyper"])
    except ValidationError as exc:
        raise ConfigError(f"bad hyperparameters: {exc}") from None


def _ingested_click_ppmi(cache: Path, ratings: corpus.RatingDataset
                         ) -> Callable[[], ppmi.PpmiMatrix] | None:
    """None without an ingested clicks.bin, else a function returning the PPMI
    of those clicks. It builds the matrix on its first call and returns the
    same one after: no subsample or split changes it."""
    clicks = _load_cached_clicks(cache, ratings)
    if clicks is None:
        return None
    return functools.cache(lambda: ppmi.build_ppmi(clicks))


def _prepare_data(cfg: dict, ratings: corpus.RatingDataset,
                  ingested_ppmi: Callable[[], ppmi.PpmiMatrix] | None,
                  docs: corpus.DocTermMatrix | None, with_ppmi: bool) -> TrainData:
    """Subsample and split the ratings; with_ppmi adds the PPMI of the ingested
    clicks, else of the training ratings binarized, never of held-out ones."""
    if cfg["subsample_fraction"] < 1.0:
        ratings = corpus.subsample_ratings(ratings, cfg["subsample_fraction"], cfg["seed"])
    split = corpus.make_split(ratings, cfg["split"]["mode"],
                              cfg["split"]["test_fraction"],
                              cfg["split"]["validation_fraction"], cfg["seed"])
    ppmi_matrix = None
    if with_ppmi:
        ppmi_matrix = (ingested_ppmi() if ingested_ppmi is not None
                       else ppmi.build_ppmi(corpus.binarize_ratings(split.train)))
    return TrainData(split=split, ppmi=ppmi_matrix, docs=docs)


def _split_record(cfg: dict) -> dict:
    """The config values that decide which ratings are trained on and scored."""
    return {"seed": cfg["seed"], "subsample_fraction": cfg["subsample_fraction"],
            **{f"split.{key}": value for key, value in cfg["split"].items()}}


def cmd_train(cfg: dict, dry_run: bool = False) -> int:
    cache = _cache_dir(cfg)
    ratings = _load_cached_ratings(cache)
    docs = _load_cached_docs(cache, ratings) if cfg["text"]["enabled"] else None
    hyper = _build_hyper(cfg, docs)
    if dry_run:
        print(json.dumps(cfg, sort_keys=True, indent=2))
        widths = (stack_widths(docs.vocab_size, hyper.sdae.hidden_widths, hyper.n_factors)
                  if hyper.sdae else [])
        print(f"planned: n_users={ratings.n_users} n_items={ratings.n_items} "
              f"n_ratings={ratings.n_entries} n_factors={hyper.n_factors} "
              f"layer_widths={widths} run={run_label(hyper)}")
        return 0
    data = _prepare_data(cfg, ratings, _ingested_click_ppmi(cache, ratings), docs,
                         with_ppmi=hyper.lambda_s > 0)
    state, trace = train(data, hyper)
    out = _out_dir(cfg)
    fp = fingerprint(cfg)
    vocab = docs.vocab if docs is not None else ()
    save_checkpoint(out / "checkpoint.bin", state, hyper,
                    user_ids=ratings.user_ids, item_ids=ratings.item_ids,
                    vocab=vocab, config_fingerprint=fp,
                    best_validation_rmse=trace.best_validation_rmse,
                    split_record=_split_record(cfg))
    with open(out / "trace.csv", "w", encoding="utf-8", newline="") as fh:
        write_trace_csv(trace, fh, fp)
    print(f"run: {trace.label}")
    print(f"best epoch: {trace.best_epoch}")
    print(f"best validation rmse: {trace.best_validation_rmse:.6f}")
    print(f"checkpoint: {out / 'checkpoint.bin'}")
    return 0


# ------------------------------------------------------------------ eval

def cmd_eval(cfg: dict, checkpoint: str) -> int:
    # --mode already folded into cfg["split"]["mode"] by load_config
    ckpt_path = Path(checkpoint)
    if not ckpt_path.exists():
        raise ConfigError(f"checkpoint does not exist: {ckpt_path}")
    if not ckpt_path.is_file():
        raise ConfigError(f"checkpoint is not a file: {ckpt_path}")
    state, hyper, meta = load_checkpoint(ckpt_path)
    cache = _cache_dir(cfg)
    ratings = _load_cached_ratings(cache)
    if (tuple(meta["user_ids"]), tuple(meta["item_ids"])) != (ratings.user_ids, ratings.item_ids):
        raise CheckpointError("checkpoint is for other ratings: its user or item ids differ "
                              "from the ingested ones; ingest with the training config")
    trained_on = meta.get("split")
    if trained_on is None:
        raise CheckpointError("checkpoint records no training split; retrain it")
    changed = [f"{key}={trained_on.get(key)!r} (config: {value!r})"
               for key, value in _split_record(cfg).items() if trained_on.get(key) != value]
    if changed:
        raise CheckpointError("checkpoint was trained on another split: " + ", ".join(changed))
    # only the out-of-matrix predictor reads the documents
    docs = _load_cached_docs(cache, ratings) if cfg["split"]["mode"] == "out_of_matrix" else None
    if docs is not None and tuple(meta["vocab"]) != docs.vocab:
        raise CheckpointError("checkpoint vocabulary differs from the ingested documents'; "
                              "ingest with the training config")
    data = _prepare_data(cfg, ratings, None, docs, with_ppmi=False)
    clamp = cfg["flags"]["clamp"]
    report = evaluate(state, data.split, docs,
                      clamp=tuple(clamp) if clamp else None,
                      config_fingerprint=fingerprint(cfg),
                      trace_ref=str(Path(cfg["paths"]["output_dir"]) / "trace.csv"))
    out = _out_dir(cfg)
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        report.write_text(fh)
    with open(out / "report.csv", "w", encoding="utf-8", newline="") as fh:
        report.write_csv(fh, hyper.lambda_s, state.epoch)
    print(f"mode: {report.mode}")
    print(f"rmse: {report.rmse:.6f} over {report.n_predictions} predictions")
    return 0


# ----------------------------------------------------------------- sweep

def cmd_sweep(cfg: dict) -> int:
    cache = _cache_dir(cfg)
    ratings = _load_cached_ratings(cache)
    docs = _load_cached_docs(cache, ratings) if cfg["text"]["enabled"] else None
    ingested_ppmi = _ingested_click_ppmi(cache, ratings)
    hyper = _build_hyper(cfg, docs)
    out = _out_dir(cfg)
    fp = fingerprint(cfg)

    if cfg["sweep"]["lambda_s_grid"]:
        points = sweep_lambda_s(_prepare_data(cfg, ratings, ingested_ppmi, docs, with_ppmi=True),
                                hyper, cfg["sweep"]["lambda_s_grid"])
        with open(out / "sweep_lambda_s.csv", "w", encoding="utf-8", newline="") as fh:
            write_sweep_csv(points, fh, fp)
        print("lambda_s sweep:")
        for p in points:
            print(f"  lambda_s={p.lambda_s:<10g} validation={p.validation_rmse:.6f} "
                  f"test={p.test_rmse:.6f}")

    if cfg["sweep"]["sparsity_grid"]:
        def subsampled(fraction: float) -> TrainData:
            return _prepare_data({**cfg, "subsample_fraction": fraction}, ratings,
                                 ingested_ppmi, docs, with_ppmi=hyper.lambda_s > 0)

        label = cfg["dataset_label"]
        points = sweep_sparsity(subsampled, hyper, cfg["sweep"]["sparsity_grid"])
        with open(out / "sparsity.csv", "w", encoding="utf-8", newline="") as fh:
            write_sparsity_csv(points, fh, label, fp)
        print(f"{'subset':<12}{'joint':>10}{'pmf':>10}")
        for p in points:
            name = f"{label}-{p.percent:g}"
            print(f"{name:<12}{p.joint_test_rmse:>10.4f}{p.pmf_test_rmse:>10.4f}")
    return 0


# ------------------------------------------------------------------ main

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--deterministic", action="store_true",
                        help="accepted, no effect: every run is deterministic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cofactor",
        description="Joint factorization of ratings and co-click PPMI with a text anchor")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse and cache datasets")
    _add_common_flags(p_ingest)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_common_flags(p_train)
    p_train.add_argument("--dry-run", action="store_true",
                         help="print the resolved config and planned dimensions, write nothing")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    _add_common_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--mode", choices=["in", "out"],
                        help="prediction mode (default: config split mode)")
    p_eval.add_argument("--clamp", help="lo,hi clamp for predictions")

    p_sweep = sub.add_parser("sweep", help="lambda_s grid and sparsity curves")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--lambda-s-grid", help="comma-separated lambda_s values")
    p_sweep.add_argument("--sparsity-grid", help="comma-separated rating percentages")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "train":
            return cmd_train(cfg, dry_run=args.dry_run)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CofactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
