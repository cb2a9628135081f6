"""Seeded world generator for the benchmark: writes one workload's text inputs.

    python3 perfbench/gen.py --workload joint-dense --seed 3 --out DIR

Reads the workload's `world` and `config` blocks from workloads.json and
writes DIR/ratings.txt, DIR/clicks.txt (when the workload has clicks),
DIR/docs.txt (when it has text), DIR/config.json for the cofactor CLI and
DIR/world.json with the input sizes. Uses numpy only and never imports
cofactor, so a change to the program cannot change the inputs it is given.

The world: ratings are 5 + user bias + item bias + θ_u·β_i + noise over a
low-rank truth, on distinct (user, item) pairs with Zipf-skewed item
popularity, every user and item rated at least once. Clicks are each user's
top items under a noisy copy of the same preferences. Each item's document
draws its terms from a softmax over a vocabulary topic map applied to β_i,
so the text predicts the item factors and the cold-start items are
learnable from text alone.
"""

from __future__ import annotations

import argparse
import json
import zlib
from pathlib import Path

import numpy as np

WORKLOADS = Path(__file__).with_name("workloads.json")


def _rating_pairs(rng, n_users: int, n_items: int, n_ratings: int, skew: float):
    """Distinct (user, item) pairs covering every user and every item."""
    popularity = (np.arange(n_items) + 10.0) ** -skew
    popularity = rng.permutation(popularity / popularity.sum())
    users = np.concatenate([np.arange(n_users), rng.integers(0, n_users, n_items)])
    items = np.concatenate([rng.choice(n_items, n_users, p=popularity),
                            np.arange(n_items)])
    keys = np.unique(users * n_items + items)
    while len(keys) < n_ratings:
        extra = n_ratings - len(keys)
        more = (rng.integers(0, n_users, 2 * extra) * n_items
                + rng.choice(n_items, 2 * extra, p=popularity))
        fresh = np.setdiff1d(more, keys)
        keys = np.union1d(keys, rng.permutation(fresh)[:extra])
    return keys // n_items, keys % n_items


def _ppmi_stats(users: np.ndarray, items: np.ndarray, n_users: int,
                n_items: int) -> tuple[int, float]:
    """Stored entries and density of the PPMI matrix of these clicks (both triangles)."""
    clicked = np.zeros((n_users, n_items), dtype=np.float32)
    clicked[users, items] = 1.0
    per_user = clicked.sum(axis=1).astype(np.int64)
    total_pairs = float((per_user * (per_user - 1) // 2).sum())
    per_item = clicked.sum(axis=0).astype(np.float64)
    co = (clicked.T @ clicked).astype(np.float64)
    upper = np.triu(co, k=1)
    rows, cols = np.nonzero(upper)
    pmi = np.log(upper[rows, cols] * total_pairs / (per_item[rows] * per_item[cols]))
    nnz = 2 * int((pmi > 0).sum())
    return nnz, nnz / float(n_items * n_items)


def generate(workload: str, seed: int, out: Path) -> dict:
    spec = json.loads(WORKLOADS.read_text(encoding="utf-8"))["workloads"][workload]
    world = spec["world"]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    n_users, n_items, rank = world["n_users"], world["n_items"], world["rank"]

    theta = rng.standard_normal((n_users, rank)) / np.sqrt(rank)
    beta = rng.standard_normal((n_items, rank))
    user_bias = world["user_bias"] * rng.standard_normal(n_users)
    item_bias = 0.5 * beta[:, 0]
    r_users, r_items = _rating_pairs(rng, n_users, n_items, world["n_ratings"],
                                     world["popularity_skew"])
    values = (5.0 + user_bias[r_users] + item_bias[r_items]
              + np.einsum("ij,ij->i", theta[r_users], beta[r_items])
              + world["noise"] * rng.standard_normal(len(r_users)))
    values = np.clip(values, 0.5, None)

    out.mkdir(parents=True, exist_ok=True)
    order = rng.permutation(len(values))
    with open(out / "ratings.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"u{u} i{i} {v:.4f}\n" for u, i, v in
                      zip(r_users[order].tolist(), r_items[order].tolist(),
                          values[order].tolist()))

    c_users, c_items = r_users, r_items
    per_user = world["clicks_per_user"]
    if per_user:
        scores = theta @ beta.T + world["click_noise"] * rng.standard_normal((n_users, n_items))
        top = np.argpartition(-scores, per_user - 1, axis=1)[:, :per_user]
        keys = np.union1d(np.repeat(np.arange(n_users), per_user) * n_items + top.ravel(),
                          r_users * n_items + r_items)
        keys = rng.permutation(keys)
        c_users, c_items = keys // n_items, keys % n_items
        with open(out / "clicks.txt", "w", encoding="utf-8") as fh:
            fh.writelines(f"u{u} i{i}\n" for u, i in zip(c_users.tolist(), c_items.tolist()))

    vocab = world["vocab"]
    if vocab:
        topics = rng.standard_normal((rank, vocab))
        base = -0.7 * np.log(np.arange(vocab) + 1.0)
        logits = world["text_signal"] * beta @ topics + base
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        draws = rng.random((n_items, world["terms_per_doc"]))
        terms = np.stack([np.searchsorted(cdf[i], draws[i], side="right")
                          for i in range(n_items)])
        docs = [row.tolist() for row in np.minimum(terms, vocab - 1)]
        # Every term appears somewhere, so the vocabulary, and with it the
        # SDAE's n_items x vocab work, is the same for every seed.
        missing = np.setdiff1d(np.arange(vocab), terms)
        for term, item in zip(missing.tolist(), rng.integers(0, n_items, len(missing)).tolist()):
            docs[item].append(term)
        with open(out / "docs.txt", "w", encoding="utf-8") as fh:
            fh.writelines(f"i{i}\t" + " ".join(f"w{t}" for t in docs[i]) + "\n"
                          for i in rng.permutation(n_items).tolist())

    config = spec["config"]
    config["seed"] = seed
    config["paths"] = {"ratings": "ratings.txt",
                       "clicks": "clicks.txt" if per_user else None,
                       "documents": "docs.txt" if vocab else None,
                       "output_dir": "out"}
    (out / "config.json").write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    info = {"workload": workload, "seed": seed, "n_users": n_users, "n_items": n_items,
            "n_ratings": int(len(values)), "n_clicks": int(len(c_users)) if per_user else 0,
            "vocab": vocab, "terms_per_doc": world["terms_per_doc"] if vocab else 0,
            "rating_std": float(values.std())}
    if per_user:
        # Without clicks the program builds its PPMI from its own training
        # split, or not at all; the traced run reports that matrix.
        info["ppmi_nnz"], info["ppmi_density"] = _ppmi_stats(c_users, c_items, n_users, n_items)
    (out / "world.json").write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")
    return info


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    print(json.dumps(generate(args.workload, args.seed, args.out)))


if __name__ == "__main__":
    main()
