import csv
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cofactor import ppmi, predict_eval
from cofactor.cli import _NULL_DEFAULT_TYPES, DEFAULT_CONFIG, main
from cofactor.container import read_container, write_container
from cofactor.corpus import binarize_ratings, make_split, parse_ratings
from cofactor.factor import load_checkpoint, train
from cofactor.ppmi import build_ppmi

WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
         "hotel", "india", "juliet", "kilo", "lima"]


def write_fixture(tmp_path: Path) -> dict:
    """Small deterministic world: 30 users x 20 items, text, and a click log."""
    rng = np.random.default_rng(404)
    ratings_lines = []
    pairs = set()
    for u in range(30):
        for i in range(20):
            if rng.random() < 0.45:
                pairs.add((u, i))
                ratings_lines.append(f"user{u} item{i} {int(rng.integers(1, 11))}")
    clicks_lines = [f"user{u} item{i}" for u, i in sorted(pairs)]
    for u in range(30):
        for i in range(20):
            if (u, i) not in pairs and rng.random() < 0.2:
                clicks_lines.append(f"user{u} item{i}")
    doc_lines = []
    for i in range(20):
        terms = rng.choice(WORDS, size=6, replace=True)
        doc_lines.append(f"item{i}\t" + " ".join(terms))
    paths = {
        "ratings": tmp_path / "ratings.txt",
        "clicks": tmp_path / "clicks.txt",
        "documents": tmp_path / "docs.txt",
    }
    paths["ratings"].write_text("\n".join(ratings_lines) + "\n")
    paths["clicks"].write_text("\n".join(clicks_lines) + "\n")
    paths["documents"].write_text("\n".join(doc_lines) + "\n")
    return paths


def write_config(tmp_path: Path, paths: dict, **tweaks) -> Path:
    cfg = {
        "paths": {"ratings": str(paths["ratings"]),
                  "clicks": str(paths.get("clicks", "")) or None,
                  "documents": str(paths.get("documents", "")) or None,
                  "output_dir": str(tmp_path / "out")},
        "seed": 7,
        "split": {"mode": "in_matrix", "test_fraction": 0.2,
                  "validation_fraction": 0.1},
        "hyper": {"n_factors": 3, "lambda_s": 0.5, "lambda_user": 0.05,
                  "lambda_item": 0.5, "lambda_context": 0.05,
                  "lambda_recon": 0.5, "lambda_decay": 1e-4,
                  "max_epochs": 3, "patience": 0, "center_ratings": False},
        "text": {"enabled": True, "vocab_size": 12, "bow_scheme": "count",
                 "hidden_widths": [6], "noise_rate": 0.2, "pretrain_epochs": 3,
                 "learning_rate": 0.05},
        "sweep": {"lambda_s_grid": [0.1, 1.0, 10.0], "sparsity_grid": []},
    }
    for key, value in tweaks.items():
        section, _, field = key.partition(".")
        if field:
            cfg[section][field] = value
        else:
            cfg[section] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


@pytest.fixture
def workspace(tmp_path):
    paths = write_fixture(tmp_path)
    config = write_config(tmp_path, paths)
    return tmp_path, config


class TestIngest:
    def test_missing_ratings_path_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {"ratings": tmp_path / "nope.txt"})
        code = main(["ingest", "--config", str(config)])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_ratings_path_naming_a_directory_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {"ratings": tmp_path})
        err = config_error(capsys, ["ingest", "--config", str(config)])
        assert err.startswith(f"error: paths.ratings is not a file: {tmp_path}")

    @pytest.mark.parametrize("key", ["ratings", "clicks", "documents"])
    def test_input_that_is_not_utf8_exits_1_naming_file(self, workspace, capsys, key):
        tmp_path, config = workspace
        path = tmp_path / f"{'docs' if key == 'documents' else key}.txt"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3]) + b"bad\xff" + b"".join(lines[3:]))
        capsys.readouterr()
        assert main(["ingest", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: paths.{key} {path} is not UTF-8 text: "
                       "invalid start byte (byte 0xff)\n")

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["ingest", "--config", str(tmp_path / "absent.json")])
        assert code == 2

    def test_config_naming_a_directory_exits_2(self, tmp_path, capsys):
        err = config_error(capsys, ["ingest", "--config", str(tmp_path)])
        assert err == f"error: config file {tmp_path} is a directory\n"

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"dataset_label": "caf\xe9"}')
        err = config_error(capsys, ["ingest", "--config", str(config)])
        assert err == (f"error: config file {config} is not UTF-8 text: "
                       "invalid continuation byte (byte 0xe9)\n")

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_output_dir_naming_a_file_exits_2(self, workspace, capsys, below):
        tmp_path, config = workspace
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        output_dir = taken / below
        edit_config(config, "paths", "output_dir", str(output_dir))
        err = config_error(capsys, ["ingest", "--config", str(config)])
        assert err == f"error: paths.output_dir is not a directory: {output_dir}\n"
        assert taken.read_text() == "not a directory"

    def test_cache_naming_a_file_exits_2(self, workspace, capsys):
        tmp_path, config = workspace
        cache = tmp_path / "out" / "cache"
        cache.parent.mkdir()
        cache.write_text("not a directory")
        err = config_error(capsys, ["ingest", "--config", str(config)])
        assert err == f"error: the cache under paths.output_dir is not a directory: {cache}\n"

    def test_fixture_counts(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["ingest", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "n_users: 30" in out
        assert "n_items: 20" in out
        cache = tmp_path / "out" / "cache"
        assert (cache / "ratings.bin").exists()
        assert (cache / "clicks.bin").exists()
        assert (cache / "docs.bin").exists()
        report = json.loads((cache / "ingest_report.json").read_text())
        assert report["n_users"] == 30 and report["vocab_size"] == 12

    def test_idempotent_bytes(self, workspace):
        tmp_path, config = workspace
        assert main(["ingest", "--config", str(config)]) == 0
        cache = tmp_path / "out" / "cache"
        first = {p.name: p.read_bytes() for p in cache.iterdir()}
        assert main(["ingest", "--config", str(config)]) == 0
        second = {p.name: p.read_bytes() for p in cache.iterdir()}
        assert first == second

    def test_reingest_deletes_caches_it_no_longer_writes(self, workspace):
        tmp_path, config = workspace
        assert main(["ingest", "--config", str(config)]) == 0
        edit_config(config, "paths", "clicks", None)
        edit_config(config, "text", "enabled", False)
        assert main(["ingest", "--config", str(config)]) == 0
        cache = tmp_path / "out" / "cache"
        report = json.loads((cache / "ingest_report.json").read_text())
        assert "n_clicks" not in report and "vocab_size" not in report
        assert not (cache / "clicks.bin").exists()
        assert not (cache / "docs.bin").exists()


class TestTrain:
    def test_dry_run_writes_nothing(self, workspace, capsys):
        tmp_path, config = workspace
        main(["ingest", "--config", str(config)])
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "planned:" in out and "n_users=30" in out
        assert not (tmp_path / "out" / "checkpoint.bin").exists()
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_train_without_ingest_exits_2(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["train", "--config", str(config)]) == 2
        assert "ingest" in capsys.readouterr().err

    def test_deterministic_checkpoints_byte_identical(self, workspace):
        tmp_path, config = workspace
        main(["ingest", "--config", str(config)])
        assert main(["train", "--config", str(config), "--deterministic"]) == 0
        out = tmp_path / "out"
        first_ckpt = (out / "checkpoint.bin").read_bytes()
        first_trace = (out / "trace.csv").read_bytes()
        assert main(["train", "--config", str(config), "--deterministic"]) == 0
        assert (out / "checkpoint.bin").read_bytes() == first_ckpt
        assert (out / "trace.csv").read_bytes() == first_trace

    def test_pmf_degenerate_label_in_trace(self, workspace, capsys):
        tmp_path, config_path = workspace
        cfg = json.loads(config_path.read_text())
        cfg["hyper"]["lambda_s"] = 0.0
        cfg["text"]["enabled"] = False
        config_path.write_text(json.dumps(cfg))
        main(["ingest", "--config", str(config_path)])
        assert main(["train", "--config", str(config_path)]) == 0
        trace = (tmp_path / "out" / "trace.csv").read_text()
        assert trace.startswith("# run: pmf-degenerate")

    @pytest.mark.parametrize("key,value", [("hyper.lambda_user", float("nan")),
                                           ("text.learning_rate", float("nan")),
                                           ("hyper.n_factors", 0),
                                           ("hyper.lambda_user", -1.0),
                                           ("hyper.max_epochs", 0),
                                           ("text.noise_rate", 1.5)])
    def test_unusable_hyperparameter_exits_2(self, workspace, capsys, key, value):
        # a value of the right type that no run can use is a config error; json
        # accepts NaN, which must end as one error line, not a traceback
        tmp_path, config_path = workspace
        cfg = json.loads(config_path.read_text())
        section, field = key.split(".")
        cfg[section][field] = value
        config_path.write_text(json.dumps(cfg))
        main(["ingest", "--config", str(config_path)])
        capsys.readouterr()
        for argv in (["train", "--dry-run"], ["train"]):
            assert main([*argv, "--config", str(config_path)]) == 2
            err = capsys.readouterr().err
            assert err.splitlines() == [err.strip()]
            assert err.startswith("error: bad hyperparameters: ") and field in err
        assert not (tmp_path / "out" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("mode", ["in_matrix", "out_of_matrix"])
    def test_ppmi_without_clicks_file_counts_only_training_ratings(self, tmp_path,
                                                                   monkeypatch, mode):
        paths = write_fixture(tmp_path)
        del paths["clicks"]
        config = write_config(tmp_path, paths, **{"split.mode": mode})
        assert main(["ingest", "--config", str(config)]) == 0
        counted = []

        def capturing_build(clicks):
            counted.append(clicks)
            return build_ppmi(clicks)

        monkeypatch.setattr(ppmi, "build_ppmi", capturing_build)
        assert main(["train", "--config", str(config)]) == 0
        cfg = json.loads(config.read_text())
        with open(paths["ratings"], encoding="utf-8") as fh:
            ratings = parse_ratings(fh)
        split = make_split(ratings, mode, cfg["split"]["test_fraction"],
                           cfg["split"]["validation_fraction"], cfg["seed"])
        [clicks] = counted
        want = binarize_ratings(split.train)
        assert clicks.shape == want.shape
        assert np.array_equal(clicks.indptr, want.indptr)
        assert np.array_equal(clicks.indices, want.indices)
        clicked = clicks.toarray() > 0
        for held_out in (split.validation, split.test):
            assert not clicked[held_out.users, held_out.items].any()

    def test_clicks_from_all_config_key_is_unknown(self, workspace, capsys):
        _, config = workspace
        edit_config(config, "flags", "clicks_from_all", True)
        err = config_error(capsys, ["train", "--config", str(config)])
        assert err == "error: unknown config key 'flags.clicks_from_all'\n"

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_clicks_from_all_flag_is_unknown(self, workspace, capsys, command):
        _, config = workspace
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), "--clicks-from-all"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --clicks-from-all" in capsys.readouterr().err

    def test_seed_override_changes_fingerprint(self, workspace):
        tmp_path, config = workspace
        main(["ingest", "--config", str(config)])
        main(["train", "--config", str(config)])
        base = (tmp_path / "out" / "trace.csv").read_text().splitlines()[0]
        main(["train", "--config", str(config), "--seed", "99"])
        reseeded = (tmp_path / "out" / "trace.csv").read_text().splitlines()[0]
        assert base != reseeded


    def test_deterministic_leaves_fingerprint(self, tmp_path):
        # the flag has no effect on the model, so none on its fingerprint
        paths = write_fixture(tmp_path)
        config = write_config(tmp_path, paths)
        main(["ingest", "--config", str(config)])
        runs = []
        for extra in ([], ["--deterministic"]):
            assert main(["train", "--config", str(config), *extra]) == 0
            out = tmp_path / "out"
            runs.append(((out / "trace.csv").read_text().splitlines()[0],
                         (out / "checkpoint.bin").read_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("key,value", [("hyper.lambda_user", "0.1"),
                                           ("hyper.max_epochs", 2.5),
                                           ("hyper.center_ratings", 1),
                                           ("hyper.lambda_s", True),
                                           ("text", []),
                                           ("sweep.lambda_s_grid", [0.1, "1"])])
    def test_wrong_value_type_exits_2(self, workspace, capsys, key, value):
        tmp_path, config_path = workspace
        cfg = json.loads(config_path.read_text())
        section, _, field = key.partition(".")
        if field:
            cfg[section][field] = value
        else:
            cfg[section] = value
        config_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith(f"error: config key {key!r} must be")

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[]")
        assert main(["train", "--config", str(config)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err


class TestEval:
    def test_report_files_and_fingerprint(self, workspace, capsys):
        tmp_path, config = workspace
        main(["ingest", "--config", str(config)])
        main(["train", "--config", str(config)])
        ckpt = tmp_path / "out" / "checkpoint.bin"
        capsys.readouterr()
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "rmse:" in out
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "mode: in_matrix" in report
        assert "config_fingerprint:" in report
        csv_lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "mode,lambda_s,epoch,rmse,n_predictions,config"
        assert len(csv_lines) == 2

    def test_clamp_flag_recorded_and_applied(self, workspace):
        tmp_path, config = workspace
        main(["ingest", "--config", str(config)])
        main(["train", "--config", str(config)])
        ckpt = tmp_path / "out" / "checkpoint.bin"
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt),
                     "--clamp", "1,10"]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "clamp: (1.0, 10.0)" in report

    def test_mode_flag_selects_predictor(self, workspace):
        tmp_path, config_path = workspace
        cfg = json.loads(config_path.read_text())
        cfg["split"]["mode"] = "out_of_matrix"
        config_path.write_text(json.dumps(cfg))
        main(["ingest", "--config", str(config_path)])
        main(["train", "--config", str(config_path)])
        ckpt = tmp_path / "out" / "checkpoint.bin"
        assert main(["eval", "--config", str(config_path), "--checkpoint",
                     str(ckpt), "--mode", "out"]) == 0
        assert "mode: out_of_matrix" in (tmp_path / "out" / "report.txt").read_text()

    def test_missing_checkpoint_exits_2(self, workspace, capsys):
        tmp_path, config = workspace
        main(["ingest", "--config", str(config)])
        code = main(["eval", "--config", str(config), "--checkpoint",
                     str(tmp_path / "ghost.bin")])
        assert code == 2

    def test_checkpoint_naming_a_directory_exits_2(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["ingest", "--config", str(config)]) == 0
        err = config_error(capsys, ["eval", "--config", str(config),
                                    "--checkpoint", str(tmp_path)])
        assert err == f"error: checkpoint is not a file: {tmp_path}\n"

    def test_dimension_mismatch_exits_1(self, workspace, tmp_path_factory, capsys):
        tmp_path, config = workspace
        main(["ingest", "--config", str(config)])
        main(["train", "--config", str(config)])
        ckpt = tmp_path / "out" / "checkpoint.bin"
        other_dir = tmp_path_factory.mktemp("other")
        other_paths = write_fixture_small(other_dir)
        other_config = write_config(other_dir, other_paths)
        main(["ingest", "--config", str(other_config)])
        code = main(["eval", "--config", str(other_config), "--checkpoint", str(ckpt)])
        assert code == 1
        assert "checkpoint is for" in capsys.readouterr().err

    def test_reingest_of_shuffled_ratings_exits_1(self, workspace, capsys):
        # the same counts under another user and item indexing used to be scored
        tmp_path, config = workspace
        ckpt = train_checkpoint(config)
        ratings_bin = tmp_path / "out" / "cache" / "ratings.bin"
        trained_ids = read_container(ratings_bin)[0]["user_ids"]
        ratings_txt = tmp_path / "ratings.txt"
        lines = ratings_txt.read_text().splitlines()
        np.random.default_rng(5).shuffle(lines)
        ratings_txt.write_text("\n".join(lines) + "\n")
        assert main(["ingest", "--config", str(config)]) == 0
        ids = read_container(ratings_bin)[0]["user_ids"]
        assert sorted(ids) == sorted(trained_ids) and ids != trained_ids
        assert eval_error(capsys, config, ckpt).startswith("error: checkpoint is for")

    def test_in_matrix_eval_does_not_read_documents(self, workspace, capsys):
        tmp_path, config = workspace
        out = tmp_path / "out"
        ckpt = train_checkpoint(config)
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        reports = [(out / name).read_bytes() for name in ("report.csv", "report.txt")]
        CORRUPTIONS["truncated_payload"](out / "cache" / "docs.bin")
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        assert [(out / name).read_bytes() for name in ("report.csv", "report.txt")] == reports
        # out of matrix the documents are read, and the corrupt file is named
        edit_config(config, "split", "mode", "out_of_matrix")
        ckpt = train_checkpoint(config)
        CORRUPTIONS["truncated_payload"](out / "cache" / "docs.bin")
        assert "docs.bin" in eval_error(capsys, config, ckpt, "--mode", "out")


def write_fixture_small(tmp_path: Path) -> dict:
    rng = np.random.default_rng(77)
    lines = [f"u{u} i{i} {int(rng.integers(1, 11))}"
             for u in range(12) for i in range(8) if rng.random() < 0.6]
    paths = {"ratings": tmp_path / "ratings.txt",
             "documents": tmp_path / "docs.txt"}
    paths["ratings"].write_text("\n".join(lines) + "\n")
    paths["documents"].write_text(
        "\n".join(f"i{i}\t" + " ".join(WORDS[(i + j) % len(WORDS)] for j in range(4))
                  for i in range(8)) + "\n")
    return paths


class TestSweep:
    def test_lambda_grid_rows(self, workspace):
        tmp_path, config = workspace
        main(["ingest", "--config", str(config)])
        assert main(["sweep", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "sweep_lambda_s.csv").read_text().splitlines()
        assert lines[0] == "lambda_s,validation_rmse,test_rmse,config"
        assert len(lines) == 4
        grid = [float(line.split(",")[0]) for line in lines[1:]]
        assert grid == [0.1, 1.0, 10.0]

    def test_sparsity_csv(self, workspace):
        tmp_path, config_path = workspace
        cfg = json.loads(config_path.read_text())
        cfg["sweep"]["lambda_s_grid"] = []
        cfg["sweep"]["sparsity_grid"] = [50, 80]
        cfg["dataset_label"] = "MT"
        config_path.write_text(json.dumps(cfg))
        main(["ingest", "--config", str(config_path)])
        assert main(["sweep", "--config", str(config_path)]) == 0
        lines = (tmp_path / "out" / "sparsity.csv").read_text().splitlines()
        assert lines[0] == "label,fraction,joint_test_rmse,pmf_test_rmse,config"
        assert len(lines) == 3
        assert lines[1].startswith("MT-50,0.5,")
        assert lines[2].startswith("MT-80,0.8,")

    def test_ratings_only_sweep_trains_each_point_once(self, tmp_path, monkeypatch):
        # each row is the test RMSE of `cofactor train` + `eval` on that subsample
        paths = write_fixture(tmp_path)
        tweaks = {"hyper.lambda_s": 0.0, "text.enabled": False, "dataset_label": "MT"}
        expected = []
        for percent in (50, 100):
            config = write_config(tmp_path, paths, subsample_fraction=percent / 100, **tweaks)
            ckpt = str(train_checkpoint(config))
            assert main(["eval", "--config", str(config), "--checkpoint", ckpt]) == 0
            rmse = (tmp_path / "out" / "report.csv").read_text().splitlines()[1].split(",")[3]
            expected.append(f"MT-{percent},{percent / 100:g},{rmse},{rmse}")
        config = write_config(tmp_path, paths, **tweaks, **{
            "sweep.lambda_s_grid": [], "sweep.sparsity_grid": [50, 100]})
        assert main(["ingest", "--config", str(config)]) == 0
        trained = []

        def counting_train(data, hyper):
            trained.append(hyper)
            return train(data, hyper)

        monkeypatch.setattr(predict_eval, "train", counting_train)
        assert main(["sweep", "--config", str(config)]) == 0
        assert len(trained) == 2
        lines = (tmp_path / "out" / "sparsity.csv").read_text().splitlines()
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == expected

    def test_ingested_click_ppmi_built_once_per_sweep(self, workspace, monkeypatch):
        tmp_path, config = workspace
        assert main(["ingest", "--config", str(config)]) == 0
        counted = []

        def counting_build(clicks):
            counted.append(clicks.nnz)
            return build_ppmi(clicks)

        monkeypatch.setattr(ppmi, "build_ppmi", counting_build)

        def sweep(lambda_grid, sparsity_grid) -> list[list[str]]:
            cfg = json.loads(config.read_text())
            cfg["sweep"] = {"lambda_s_grid": lambda_grid, "sparsity_grid": sparsity_grid}
            config.write_text(json.dumps(cfg))
            paths = [tmp_path / "out" / name for name in ("sweep_lambda_s.csv", "sparsity.csv")]
            for path in paths:
                path.unlink(missing_ok=True)
            counted.clear()
            assert main(["sweep", "--config", str(config)]) == 0
            # without the last column, the config fingerprint, which names the grids
            return [[line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
                    if path.exists() else None for path in paths]

        both = sweep([0.1, 1.0], [50])
        assert len(counted) == 1
        lambda_only, no_sparsity = sweep([0.1, 1.0], [])
        no_lambda, sparsity_only = sweep([], [50])
        assert no_sparsity is None and no_lambda is None
        assert both == [lambda_only, sparsity_only]

    def test_every_csv_ends_its_lines_in_newline_and_reads_back(self, workspace):
        tmp_path, config = workspace
        edit_config(config, "sweep", "sparsity_grid", [50])
        ckpt = train_checkpoint(config)
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        assert main(["sweep", "--config", str(config)]) == 0
        paths = sorted((tmp_path / "out").glob("*.csv"))
        assert [path.name for path in paths] == ["report.csv", "sparsity.csv",
                                                 "sweep_lambda_s.csv", "trace.csv"]
        for path in paths:
            assert b"\r" not in path.read_bytes(), path.name
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            assert rows and all(None not in row and None not in row.values()
                                for row in rows), path.name

    def test_grid_flag_override(self, workspace):
        tmp_path, config = workspace
        main(["ingest", "--config", str(config)])
        assert main(["sweep", "--config", str(config),
                     "--lambda-s-grid", "0.5,2.0"]) == 0
        lines = (tmp_path / "out" / "sweep_lambda_s.csv").read_text().splitlines()
        assert len(lines) == 3


class TestEntryPoint:
    def test_console_script_usage_error(self):
        proc = subprocess.run([sys.executable, "-m", "cofactor.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 2

    def test_module_help(self):
        proc = subprocess.run([sys.executable, "-m", "cofactor.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "ingest" in proc.stdout and "sweep" in proc.stdout


def rewrite_header(path: Path, edit) -> None:
    """Apply `edit` to a container's JSON header in place, keeping its payload."""
    blob = path.read_bytes()
    length = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + length])
    edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + length:])


def train_checkpoint(config: Path) -> Path:
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    return config.parent / "out" / "checkpoint.bin"


def eval_error(capsys, config: Path, ckpt: Path, *flags: str) -> str:
    """Run eval, require exit 1 and a single `error:` line, return that line."""
    capsys.readouterr()
    assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt), *flags]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("error: ")
    return err


def edit_config(config: Path, section: str, field: str, value) -> None:
    cfg = json.loads(config.read_text())
    if section:
        cfg.setdefault(section, {})[field] = value
    else:
        cfg[field] = value
    config.write_text(json.dumps(cfg))


def config_error(capsys, argv: list[str]) -> str:
    """Run the CLI, require exit 2 and a single `error:` line, return that line."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    return err


# command lines whose flag value no run can use; CKPT stands for a trained checkpoint
BAD_FLAG_VALUES = [
    ["sweep", "--lambda-s-grid", "1,abc"],
    ["sweep", "--lambda-s-grid", "0.1,-1"],
    ["sweep", "--lambda-s-grid", "nan"],
    ["sweep", "--lambda-s-grid", "inf"],
    ["sweep", "--sparsity-grid", "10,"],
    ["sweep", "--sparsity-grid", "50,150"],
    ["eval", "--checkpoint", "CKPT", "--clamp", "1"],
    ["eval", "--checkpoint", "CKPT", "--clamp", "1,x"],
    ["eval", "--checkpoint", "CKPT", "--clamp", "5,1"],
    ["eval", "--checkpoint", "CKPT", "--clamp", "1,2,3"],
    ["train", "--seed", "-1"],
]

# config values of the right type that no run can use
BAD_CONFIG_VALUES = [("flags.clamp", [5, 1]), ("flags.clamp", [1]), ("flags.clamp", "1,10"),
                     ("seed", -1), ("text.hidden_widths", [4.5]), ("text.hidden_widths", [0]),
                     ("subsample_fraction", 1.5), ("subsample_fraction", 0),
                     ("sweep.sparsity_grid", [50, 150]), ("sweep.lambda_s_grid", [0.1, -1]),
                     ("sweep.lambda_s_grid", [float("nan")]), ("split.mode", "bogus"),
                     ("split.test_fraction", float("nan")), ("split.test_fraction", 1.5),
                     ("split.validation_fraction", float("nan")),
                     ("split.validation_fraction", 0),
                     ("split.validation_fraction", 0.8),  # 0.2 + 0.8 leaves no train set
                     ("paths.ratings", 5), ("paths.clicks", True), ("paths.documents", ["a"]),
                     ("text.bow_scheme", "bogus")]


def test_every_null_default_names_its_type():
    # a key whose default is None takes null or the type _check_type looks up
    def null_keys(section: dict, prefix: str = ""):
        for key, value in section.items():
            if isinstance(value, dict):
                yield from null_keys(value, f"{prefix}{key}.")
            elif value is None:
                yield prefix + key

    assert sorted(null_keys(DEFAULT_CONFIG)) == sorted(_NULL_DEFAULT_TYPES)


class TestUnusableValuesExit2:
    @pytest.mark.parametrize("argv", BAD_FLAG_VALUES, ids=" ".join)
    def test_flag_value(self, workspace, capsys, argv):
        tmp_path, config = workspace
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        err = config_error(capsys, [ckpt if arg == "CKPT" else arg for arg in argv]
                           + ["--config", str(config)])
        assert err.startswith(f"error: {argv[-2]} must be")

    @pytest.mark.parametrize("vocab_size", [0, -1])
    def test_vocab_size_below_one_stops_ingest(self, workspace, capsys, vocab_size):
        _, config = workspace
        edit_config(config, "text", "vocab_size", vocab_size)
        err = config_error(capsys, ["ingest", "--config", str(config)])
        assert err.startswith(f"error: config key 'text.vocab_size' must be a positive "
                              f"integer, got {vocab_size}")

    @pytest.mark.parametrize("key,value", BAD_CONFIG_VALUES,
                             ids=[f"{key}={json.dumps(value)}" for key, value in BAD_CONFIG_VALUES])
    def test_config_value(self, workspace, capsys, key, value):
        _, config = workspace
        assert main(["ingest", "--config", str(config)]) == 0
        section, _, field = key.rpartition(".")
        edit_config(config, section, field, value)
        err = config_error(capsys, ["train", "--config", str(config)])
        assert err.startswith(f"error: config key {key!r} must be")

    @pytest.mark.parametrize("value", [None, 5, "abc", {"n_users": 40, "n_items": 25}],
                             ids=json.dumps)
    def test_synthetic_config_key_is_unknown(self, workspace, capsys, value):
        # ingest reads only files; perfbench/gen.py writes synthetic worlds as files
        _, config = workspace
        edit_config(config, "", "synthetic", value)
        err = config_error(capsys, ["ingest", "--config", str(config)])
        assert err == "error: unknown config key 'synthetic'\n"


class TestEvalRefusesOtherSplit:
    def test_seed_mismatch_exits_1(self, workspace, capsys):
        _, config = workspace
        ckpt = train_checkpoint(config)
        assert "seed=7 (config: 1)" in eval_error(capsys, config, ckpt, "--seed", "1")

    def test_split_mode_mismatch_exits_1(self, workspace, capsys):
        _, config = workspace
        ckpt = train_checkpoint(config)
        err = eval_error(capsys, config, ckpt, "--mode", "out")
        assert "split.mode='in_matrix' (config: 'out_of_matrix')" in err

    def test_subsample_fraction_mismatch_exits_1(self, workspace, capsys):
        _, config = workspace
        ckpt = train_checkpoint(config)
        edit_config(config, "", "subsample_fraction", 0.8)
        assert "subsample_fraction=1.0 (config: 0.8)" in eval_error(capsys, config, ckpt)

    def test_checkpoint_without_split_record_exits_1(self, workspace, capsys):
        _, config = workspace
        ckpt = train_checkpoint(config)
        rewrite_header(ckpt, lambda header: header["meta"].pop("split"))
        assert "retrain" in eval_error(capsys, config, ckpt)

    def test_reordered_vocabulary_exits_1(self, tmp_path, capsys):
        # "count" and "tfidf" rank the fixture's 12 words in different orders
        config = write_config(tmp_path, write_fixture(tmp_path),
                              **{"split.mode": "out_of_matrix"})
        ckpt = train_checkpoint(config)
        edit_config(config, "text", "bow_scheme", "tfidf")
        assert main(["ingest", "--config", str(config)]) == 0
        assert "vocabulary" in eval_error(capsys, config, ckpt, "--mode", "out")


CORRUPTIONS = {
    "truncated_payload": lambda path: path.write_bytes(path.read_bytes()[:-8]),
    "truncated_length": lambda path: path.write_bytes(path.read_bytes()[:12]),
    "truncated_header": lambda path: path.write_bytes(path.read_bytes()[:40]),
    "unknown_hyperparameter": lambda path: rewrite_header(
        path, lambda header: header["meta"]["hyper"].update(momentum=0.9)),
    "missing_array": lambda path: rewrite_header(
        path, lambda header: header["arrays"].pop("user_factors")),
    "missing_manifest_key": lambda path: rewrite_header(
        path, lambda header: header["meta"].pop("epoch")),
}


def set_manifest_value(key: str, value):
    return lambda path: rewrite_header(path, lambda header: header["meta"].update({key: value}))


# manifest values of the wrong type; each used to end in a raw traceback or
# to be read as another value
CORRUPTIONS.update({
    "user_ids_int": set_manifest_value("user_ids", 5),
    "item_ids_of_ints": set_manifest_value("item_ids", list(range(20))),
    "vocab_int": set_manifest_value("vocab", 3),
    "split_list": set_manifest_value("split", [1]),
    "rating_offset_string": set_manifest_value("rating_offset", "a"),
    "rating_offset_nan": set_manifest_value("rating_offset", float("nan")),
    "rating_offset_infinity": set_manifest_value("rating_offset", float("inf")),
    "rating_offset_bool": set_manifest_value("rating_offset", True),
    "epoch_string": set_manifest_value("epoch", "x"),
    "epoch_negative": set_manifest_value("epoch", -3),
    "epoch_bool": set_manifest_value("epoch", True),
})


class TestCorruptFiles:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_checkpoint_exits_1(self, workspace, capsys, corruption):
        _, config = workspace
        ckpt = train_checkpoint(config)
        CORRUPTIONS[corruption](ckpt)
        assert str(ckpt) in eval_error(capsys, config, ckpt)

    @pytest.mark.parametrize("name, key, value", [("ratings.bin", "user_ids", 5),
                                                  ("ratings.bin", "item_ids", [1, 2]),
                                                  ("docs.bin", "vocab", 3)])
    def test_cache_table_not_strings_exits_1(self, workspace, capsys, name, key, value):
        tmp_path, config = workspace
        assert main(["ingest", "--config", str(config)]) == 0
        set_manifest_value(key, value)(tmp_path / "out" / "cache" / name)
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: ") and name in err and repr(key) in err

    def test_truncated_cache_exits_1(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["ingest", "--config", str(config)]) == 0
        CORRUPTIONS["truncated_payload"](tmp_path / "out" / "cache" / "ratings.bin")
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: ") and "ratings.bin" in err

    def test_stored_activation_key_still_loads(self, workspace):
        # earlier checkpoints store the autoencoder's activation, always "sigmoid"
        _, config = workspace
        ckpt = train_checkpoint(config)
        rewrite_header(ckpt, lambda header: header["meta"]["hyper"]["sdae"].update(
            activation="sigmoid"))
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0

    @pytest.mark.parametrize("extra", [{}, {"activation": "sigmoid"}],
                             ids=["plain", "with-activation"])
    def test_stored_layer_widths_load_to_the_same_report(self, workspace, extra):
        # earlier checkpoints store the autoencoder's whole symmetric stack
        # (vocabulary 12, hidden 6, latent 3) where they now store hidden_widths
        tmp_path, config = workspace
        ckpt = train_checkpoint(config)
        out = tmp_path / "out"
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        reports = [(out / name).read_bytes() for name in ("report.csv", "report.txt")]
        sdae = load_checkpoint(ckpt)[1].sdae

        def store_stack(header):
            stored = header["meta"]["hyper"]["sdae"]
            assert stored.pop("hidden_widths") == [6]
            stored.update(layer_widths=[12, 6, 3, 6, 12], **extra)

        rewrite_header(ckpt, store_stack)
        assert load_checkpoint(ckpt)[1].sdae == sdae
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        assert [(out / name).read_bytes() for name in ("report.csv", "report.txt")] == reports

    def test_checkpoint_with_stored_sizes_loads_to_the_same_report(self, workspace):
        # earlier checkpoints also store the sizes, which the arrays give
        tmp_path, config = workspace
        ckpt = train_checkpoint(config)
        out = tmp_path / "out"
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        reports = [(out / name).read_bytes() for name in ("report.csv", "report.txt")]
        rewrite_header(ckpt, lambda header: header["meta"].update(
            n_users=30, n_items=20, n_factors=3, vocab_size=12,
            layer_widths=[12, 6, 3, 6, 12], run="joint"))
        assert main(["eval", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        assert [(out / name).read_bytes() for name in ("report.csv", "report.txt")] == reports

    @pytest.mark.parametrize("kind", ["user", "item"])
    def test_checkpoint_with_too_few_ids_exits_1(self, workspace, capsys, kind):
        # 5 user ids for 30 factor rows used to load, and eval scored it
        _, config = workspace
        ckpt = train_checkpoint(config)
        rewrite_header(ckpt, lambda header: header["meta"].update(
            {f"{kind}_ids": header["meta"][f"{kind}_ids"][:5]}))
        err = eval_error(capsys, config, ckpt)
        assert str(ckpt) in err and f"5 {kind} ids" in err

    def test_checkpoint_holding_nan_exits_1(self, workspace, capsys):
        _, config = workspace
        ckpt = train_checkpoint(config)
        rewrite_array(ckpt, "item_factors", set_entry(2, np.nan))
        err = eval_error(capsys, config, ckpt)
        assert str(ckpt) in err and "'item_factors'" in err


def rewrite_array(path: Path, name: str, edit) -> None:
    """Replace one array of a container by `edit` applied to a copy of it. An
    edit that keeps the size overwrites the array's bytes in the file, so it
    may store what write_container refuses to write: a NaN or an infinity."""
    meta, arrays = read_container(path)
    edited = edit(arrays[name].copy())
    if edited.size != arrays[name].size:
        write_container(path, dict(meta), {**arrays, name: edited})
        return
    blob = bytearray(path.read_bytes())
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    info = json.loads(blob[16:16 + header_len])["arrays"][name]
    start = 16 + header_len + info["offset"]
    raw = np.ascontiguousarray(edited, dtype=info["dtype"]).tobytes()
    blob[start:start + len(raw)] = raw
    path.write_bytes(bytes(blob))


def set_entry(index: int, value: int):
    def edit(array):
        array[index] = value
        return array
    return edit


def copy_entry(source: int, target: int):
    def edit(array):
        array[target] = array[source]
        return array
    return edit


def swap_entries(a: int, b: int):
    def edit(array):
        array[[a, b]] = array[[b, a]]
        return array
    return edit


BAD_CACHE_ARRAYS = {
    # a column index past the vocabulary: an out-of-bounds read in the product
    "docs_column_index": ("docs.bin", "indices", set_entry(0, 10**6)),
    # rows 5 and 6 are non-empty, so indptr decreases between them
    "docs_swapped_indptr": ("docs.bin", "indptr", swap_entries(5, 6)),
    "ratings_negative_user": ("ratings.bin", "users", set_entry(3, -2)),
    "ratings_item_past_end": ("ratings.bin", "items", set_entry(3, 100000)),
    "clicks_item_past_end": ("clicks.bin", "indices", set_entry(3, 100000)),
    "clicks_negative_item": ("clicks.bin", "indices", set_entry(3, -1)),
    # a user's click stored twice, or a document's terms out of order: rows
    # that are not canonical
    "clicks_repeated_item": ("clicks.bin", "indices", copy_entry(3, 4)),
    "docs_unsorted_columns": ("docs.bin", "indices", swap_entries(0, 1)),
    # parallel arrays of different lengths: ratings or clicks silently dropped
    "ratings_values_short": ("ratings.bin", "ratings", lambda array: array[:-5]),
    "ratings_users_long": ("ratings.bin", "users", lambda array: np.append(array, 0)),
    "clicks_items_short": ("clicks.bin", "indices", lambda array: array[:-5]),
    # non-finite values: scored or trained on as if they were numbers
    "ratings_nan_value": ("ratings.bin", "ratings", set_entry(3, np.nan)),
    "docs_inf_data": ("docs.bin", "data", set_entry(0, np.inf)),
}


class TestCorruptCacheArrays:
    @pytest.mark.parametrize("case", sorted(BAD_CACHE_ARRAYS))
    def test_train_exits_1_naming_file_and_array(self, workspace, case):
        # a child interpreter, so that a crash inside a compiled product fails
        # this test instead of ending the whole pytest run
        tmp_path, config = workspace
        assert main(["ingest", "--config", str(config)]) == 0
        name, array, edit = BAD_CACHE_ARRAYS[case]
        rewrite_array(tmp_path / "out" / "cache" / name, array, edit)
        proc = subprocess.run([sys.executable, "-m", "cofactor.cli", "train",
                               "--config", str(config)], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert name in proc.stderr and repr(array) in proc.stderr


class TestCacheThatDoesNotFitTheRatings:
    """clicks.bin and docs.bin take their shapes from ratings.bin, so one
    written by another ingest ends in an error naming it."""

    @pytest.mark.parametrize("name", ["clicks.bin", "docs.bin"])
    def test_train_exits_1_naming_file(self, workspace, tmp_path_factory, capsys, name):
        tmp_path, config = workspace
        assert main(["ingest", "--config", str(config)]) == 0
        other_dir = tmp_path_factory.mktemp("other")
        other_paths = write_fixture_small(other_dir)
        other_paths["clicks"] = other_dir / "clicks.txt"
        other_paths["clicks"].write_text("".join(
            " ".join(line.split()[:2]) + "\n"
            for line in other_paths["ratings"].read_text().splitlines()))
        assert main(["ingest", "--config", str(write_config(other_dir, other_paths))]) == 0
        shutil.copyfile(other_dir / "out" / "cache" / name, tmp_path / "out" / "cache" / name)
        capsys.readouterr()
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: ") and name in err


# runs each argv of the JSON list in sys.argv[1], then prints the exit codes
# and the scipy modules loaded
SCIPY_PROBE = """
import json, sys
from cofactor.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])] if len(sys.argv) > 1 else []
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def scipy_probe(*argvs: list[str]) -> str:
    args = [json.dumps(argvs)] if argvs else []
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *args],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


class TestScipyLoadsOnlyForSparseProducts:
    def test_import_loads_no_scipy(self):
        assert scipy_probe() == "[] []"

    def test_text_free_ratings_only_run_loads_no_scipy(self, tmp_path):
        config = str(write_config(tmp_path, write_fixture(tmp_path),
                                  **{"hyper.lambda_s": 0.0, "text.enabled": False}))
        ckpt = str(tmp_path / "out" / "checkpoint.bin")
        assert scipy_probe(["ingest", "--config", config], ["train", "--config", config],
                           ["eval", "--config", config, "--checkpoint", ckpt, "--mode", "in"]
                           ) == "[0, 0, 0] []"

    def test_text_run_loads_scipy(self, workspace):
        _, config = workspace
        probe = scipy_probe(["ingest", "--config", str(config)],
                            ["train", "--config", str(config)])
        assert probe.startswith("[0, 0] [") and "'scipy.sparse'" in probe
