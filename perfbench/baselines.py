"""Held-out baselines for the eval check, added to DIR/world.json.

    PYTHONPATH=src python3 perfbench/baselines.py --workdir DIR

Parses DIR/ratings.txt with cofactor's `corpus.parse_ratings` and splits it
with `corpus.make_split` and DIR/config.json, as `cofactor ingest` and
`cofactor eval` do, so the baselines are scored on the very ratings eval
scores. Both predictors know nothing of items: the training ratings' mean,
and each user's training mean (the overall mean for a user with none). Only
the check uses cofactor here; the inputs come from perfbench/gen.py alone.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from cofactor import corpus


def _rmse(pred, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, type=Path)
    args = parser.parse_args()
    cfg = json.loads((args.workdir / "config.json").read_text(encoding="utf-8"))
    with open(args.workdir / "ratings.txt", encoding="utf-8") as fh:
        ratings = corpus.parse_ratings(fh)
    split = corpus.make_split(ratings, cfg["split"]["mode"], cfg["split"]["test_fraction"],
                              cfg["split"]["validation_fraction"], cfg["seed"])
    train, test = split.train, split.test
    mean = float(train.ratings.mean())
    counts = np.bincount(train.users, minlength=ratings.n_users)
    sums = np.bincount(train.users, train.ratings, minlength=ratings.n_users)
    user_mean = np.where(counts > 0, sums / np.maximum(counts, 1), mean)

    world_path = args.workdir / "world.json"
    world = json.loads(world_path.read_text(encoding="utf-8"))
    world["heldout_mean_rmse"] = _rmse(mean, test.ratings)
    world["heldout_user_mean_rmse"] = _rmse(user_mean[test.users], test.ratings)
    world_path.write_text(json.dumps(world, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
