"""Dataset ingestion, index mapping, train/validation/test splits, synthetic data.

Ratings are kept as parallel arrays of dense user/item indices plus the
external-id tables that define the indexing. All operations here are pure:
they never mutate their inputs and are deterministic under a fixed seed.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from typing import IO, Literal

import numpy as np

from .errors import ParseError, SplitError, ValidationError
from .sparse import CsrMatrix, from_coo

SplitMode = Literal["in_matrix", "out_of_matrix"]
BowScheme = Literal["tfidf", "count"]


@dataclass
class RatingDataset:
    """Sparse rating triplets over dense indices.

    `user_ids[k]` is the external id mapped to dense user index k (same for
    items). Zero never appears as a rating value: unobserved pairs are simply
    absent.
    """

    n_users: int
    n_items: int
    users: np.ndarray       # int64, dense user index per entry
    items: np.ndarray       # int64, dense item index per entry
    ratings: np.ndarray     # float64
    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]

    @property
    def n_entries(self) -> int:
        return len(self.ratings)

    @property
    def user_index_map(self) -> dict[str, int]:
        return {uid: k for k, uid in enumerate(self.user_ids)}

    @property
    def item_index_map(self) -> dict[str, int]:
        return {iid: k for k, iid in enumerate(self.item_ids)}

    def replace_entries(self, users: np.ndarray, items: np.ndarray,
                        ratings: np.ndarray) -> "RatingDataset":
        """Same index universe, different entry set."""
        return RatingDataset(self.n_users, self.n_items,
                             np.asarray(users, dtype=np.int64),
                             np.asarray(items, dtype=np.int64),
                             np.asarray(ratings, dtype=np.float64),
                             self.user_ids, self.item_ids)


@dataclass
class ClickDataset:
    """Observed (user, item) interactions; pairs unique, values carry no weight."""

    n_users: int
    n_items: int
    users: np.ndarray   # int64
    items: np.ndarray   # int64

    @property
    def n_entries(self) -> int:
        return len(self.users)


@dataclass
class DocTermMatrix:
    """Per-item bag-of-words rows, max-count normalized into [0, 1].

    One row per item index; items without text keep an all-zero row.
    """

    n_items: int
    vocab: tuple[str, ...]
    rows: CsrMatrix         # shape (n_items, len(vocab)), float64

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


@dataclass
class EvalSplit:
    train: RatingDataset
    validation: RatingDataset
    test: RatingDataset
    mode: SplitMode
    seed: int


def _records(source: IO[str], form: str):
    """Yield (line number, fields) per non-blank line of whitespace-separated
    fields, which must be as many as the words of `form`."""
    for line_no, raw in enumerate(source, start=1):
        fields = raw.split()
        if not fields:
            continue
        if len(fields) != len(form.split()):
            raise ParseError(f"expected {form!r}, got {raw.strip()!r}", line_no)
        yield line_no, fields


def parse_ratings(source: IO[str]) -> RatingDataset:
    """Read `user_id item_id rating` lines into a densely indexed dataset.

    Indices are assigned in first-appearance order. Duplicate (user, item)
    pairs and non-positive ratings are rejected.
    """
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    users: list[int] = []
    items: list[int] = []
    values: list[float] = []
    seen: set[tuple[int, int]] = set()
    for line_no, (uid, iid, rtext) in _records(source, "user item rating"):
        try:
            rating = float(rtext)
        except ValueError:
            raise ParseError(f"rating {rtext!r} is not a number", line_no) from None
        if not math.isfinite(rating) or rating <= 0:
            raise ValidationError(f"line {line_no}: rating must be finite and > 0, got {rating}")
        u = user_index.setdefault(uid, len(user_index))
        i = item_index.setdefault(iid, len(item_index))
        if (u, i) in seen:
            raise ValidationError(f"line {line_no}: duplicate rating for pair ({uid!r}, {iid!r})")
        seen.add((u, i))
        users.append(u)
        items.append(i)
        values.append(rating)
    return RatingDataset(
        n_users=len(user_index), n_items=len(item_index),
        users=np.asarray(users, dtype=np.int64),
        items=np.asarray(items, dtype=np.int64),
        ratings=np.asarray(values, dtype=np.float64),
        user_ids=tuple(user_index), item_ids=tuple(item_index))


def parse_clicks(source: IO[str], user_index_map: dict[str, int],
                 item_index_map: dict[str, int]) -> tuple[ClickDataset, int]:
    """Read `user_id item_id` lines against an existing index universe.

    Pairs naming users/items absent from the maps are dropped (returned count),
    mirroring the removal of ids that have no explicit feedback. Duplicates
    collapse to one click.
    """
    pairs: set[tuple[int, int]] = set()
    dropped = 0
    for _, (uid, iid) in _records(source, "user item"):
        u = user_index_map.get(uid)
        i = item_index_map.get(iid)
        if u is None or i is None:
            dropped += 1
            continue
        pairs.add((u, i))
    ordered = sorted(pairs)
    users = np.asarray([p[0] for p in ordered], dtype=np.int64)
    items = np.asarray([p[1] for p in ordered], dtype=np.int64)
    return ClickDataset(len(user_index_map), len(item_index_map), users, items), dropped


def binarize_ratings(ratings: RatingDataset) -> ClickDataset:
    """One click per observed rating pair; rating values are discarded."""
    return ClickDataset(ratings.n_users, ratings.n_items,
                        ratings.users.copy(), ratings.items.copy())


def subsample_ratings(ratings: RatingDataset, fraction: float, seed: int) -> RatingDataset:
    """Uniform sample without replacement of round(fraction * n) entries.

    Implemented as a prefix of a seeded permutation, so at a fixed seed the
    sample for a smaller fraction is nested inside the sample for a larger one.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValidationError(f"fraction must be in (0, 1], got {fraction}")
    n = ratings.n_entries
    k = int(round(fraction * n))
    return _take(ratings, np.random.default_rng(seed).permutation(n)[:k])


def _take(ratings: RatingDataset, idx: np.ndarray) -> RatingDataset:
    idx = np.sort(np.asarray(idx, dtype=np.int64))
    return ratings.replace_entries(ratings.users[idx], ratings.items[idx],
                                   ratings.ratings[idx])


def make_split(ratings: RatingDataset, mode: SplitMode, test_fraction: float,
               validation_fraction: float, seed: int) -> EvalSplit:
    """Partition rating entries for evaluation.

    in_matrix holds out individual entries while pinning one entry per item to
    train (every test/validation item keeps a training rating). out_of_matrix
    holds out whole items: every rating of a held-out item moves together.
    Fractions are of the total (entries for in_matrix, items for out_of_matrix).
    """
    if test_fraction <= 0 or validation_fraction <= 0:
        raise SplitError("test and validation fractions must be positive")
    if test_fraction + validation_fraction >= 1:
        raise SplitError("test + validation fractions must leave room for train")
    rng = np.random.default_rng(seed)
    if mode == "in_matrix":
        n = ratings.n_entries
        n_test = int(round(test_fraction * n))
        n_val = int(round(validation_fraction * n))
        if n_test < 1 or n_val < 1:
            raise SplitError(f"split of {n} entries yields empty test or validation set")
        order = rng.permutation(n)
        # each item's anchor is its first entry in `order`; the rest form the pool
        _, first = np.unique(ratings.items[order], return_index=True)
        pool = np.delete(order, first)
        if len(pool) < n_test + n_val:
            raise SplitError("too few non-anchor entries to fill test and validation sets")
        test_idx = pool[:n_test]
        val_idx = pool[n_test:n_test + n_val]
        train_idx = np.concatenate([order[first], pool[n_test + n_val:]])
    elif mode == "out_of_matrix":
        m = ratings.n_items
        n_test_items = int(round(test_fraction * m))
        n_val_items = int(round(validation_fraction * m))
        if n_test_items < 1 or n_val_items < 1:
            raise SplitError(f"split of {m} items yields empty test or validation item set")
        if n_test_items + n_val_items >= m:
            raise SplitError("held-out items would leave no training items")
        perm = rng.permutation(m)
        item_owner = np.zeros(m, dtype=np.int64)  # 0 train, 1 validation, 2 test
        item_owner[perm[:n_test_items]] = 2
        item_owner[perm[n_test_items:n_test_items + n_val_items]] = 1
        owner = item_owner[ratings.items]
        train_idx = np.flatnonzero(owner == 0)
        val_idx = np.flatnonzero(owner == 1)
        test_idx = np.flatnonzero(owner == 2)
    else:
        raise ValidationError(f"unknown split mode {mode!r}")
    parts = {"train": train_idx, "validation": val_idx, "test": test_idx}
    for name, idx in parts.items():
        if len(idx) == 0:
            raise SplitError(f"{mode} split leaves the {name} set empty")
    return EvalSplit(train=_take(ratings, train_idx),
                     validation=_take(ratings, val_idx),
                     test=_take(ratings, test_idx),
                     mode=mode, seed=seed)


_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


def tokenize(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


def parse_documents(source: IO[str], vocab_size: int, scheme: BowScheme,
                    item_index_map: dict[str, int]) -> DocTermMatrix:
    """Read `item_id<TAB>text` lines into normalized bag-of-words rows.

    The vocabulary is the top `vocab_size` terms by the scheme's score
    ("count": total corpus count; "tfidf": total count weighted by smoothed
    idf). Row values are term count divided by the row's max count, so every
    row lies in [0, 1]. Items without a document line get an all-zero row.
    """
    if scheme not in ("tfidf", "count"):
        raise ValidationError(f"unknown bag-of-words scheme {scheme!r}")
    if vocab_size < 1:
        raise ValidationError(f"vocab_size must be positive, got {vocab_size}")
    doc_counts: dict[int, dict[str, int]] = {}
    total_count: dict[str, int] = {}
    doc_freq: dict[str, int] = {}
    n_docs = 0
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise ParseError("expected 'item_id<TAB>text'", line_no)
        iid, text = line.split("\t", 1)
        item = item_index_map.get(iid.strip())
        if item is None:
            raise ValidationError(f"line {line_no}: unknown item id {iid.strip()!r}")
        if item in doc_counts:
            raise ValidationError(f"line {line_no}: duplicate document for item {iid.strip()!r}")
        counts: dict[str, int] = {}
        for tok in tokenize(text):
            counts[tok] = counts.get(tok, 0) + 1
        doc_counts[item] = counts
        n_docs += 1
        for term, c in counts.items():
            total_count[term] = total_count.get(term, 0) + c
            doc_freq[term] = doc_freq.get(term, 0) + 1
    if n_docs == 0:
        raise ValidationError("empty document corpus")
    if scheme == "count":
        scores = {t: float(c) for t, c in total_count.items()}
    else:
        scores = {t: c * (math.log((1 + n_docs) / (1 + doc_freq[t])) + 1.0)
                  for t, c in total_count.items()}
    ranked = sorted(scores, key=lambda t: (-scores[t], t))[:vocab_size]
    vocab = tuple(ranked)
    term_col = {t: j for j, t in enumerate(vocab)}
    n_items = len(item_index_map)
    data: list[float] = []
    rows_idx: list[int] = []
    cols_idx: list[int] = []
    for item in sorted(doc_counts):
        counts = doc_counts[item]
        in_vocab = [(term_col[t], c) for t, c in counts.items() if t in term_col]
        if not in_vocab:
            continue
        peak = max(c for _, c in in_vocab)
        for col, c in sorted(in_vocab):
            rows_idx.append(item)
            cols_idx.append(col)
            data.append(c / peak)
    rows = from_coo((n_items, len(vocab)), rows_idx, cols_idx,
                    np.asarray(data, dtype=np.float64))
    return DocTermMatrix(n_items=n_items, vocab=vocab, rows=rows)


@dataclass
class SyntheticConfig:
    """Knobs for the synthetic-world generator (desk-scale experiments).

    Ratings are drawn around user-item factor products shifted by
    `rating_offset`; clicks are each user's top items under a noisy copy of
    the same preference scores, so the click channel correlates with ratings
    without duplicating them. Item text rows feed a randomly drawn encoder
    whose middle layer is the mean of the item feature vectors, making text
    genuinely predictive of the factors.
    """

    n_users: int
    n_items: int
    n_factors: int
    vocab_size: int = 40
    rating_density: float = 0.05
    sigma_theta: float = 1.0
    sigma_beta: float = 0.3
    sigma_alpha: float = 1.0
    sigma_rating: float = 0.1
    rating_offset: float = 6.0
    click_density: float = 0.2
    click_noise: float = 0.5
    clicks_include_rated: bool = True
    doc_terms_per_item: int = 8
    encoder_hidden: tuple[int, ...] = (16,)

    def validate(self) -> None:
        if min(self.n_users, self.n_items, self.n_factors, self.vocab_size) < 1:
            raise ValidationError("synthetic dimensions must be positive")
        if not 0.0 < self.rating_density <= 1.0:
            raise ValidationError("rating_density must be in (0, 1]")
        if not 0.0 <= self.click_density <= 1.0:
            raise ValidationError("click_density must be in [0, 1]")
        for name in ("sigma_theta", "sigma_beta", "sigma_alpha", "sigma_rating",
                     "click_noise"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be nonnegative")


def generate_synthetic(config: SyntheticConfig, seed: int):
    """Draw a full synthetic world; returns (ratings, clicks, docs, true state).

    The returned model state holds the generating factors and encoder, for
    recovery experiments. With rating_offset=0 and sigma_rating=0 the observed
    ratings equal the factor products exactly (such configs can produce
    non-positive values; real-scale configs keep the offset well above zero).
    """
    from .factor import ModelState  # deferred: factor imports this module
    from .sdae import SdaeParams, encode, stack_widths

    config.validate()
    rng = np.random.default_rng(seed)
    n, m, k, v = config.n_users, config.n_items, config.n_factors, config.vocab_size

    vocab = tuple(f"w{j:04d}" for j in range(v))
    terms_per_item = min(config.doc_terms_per_item, v)
    rows_idx, cols_idx, data = [], [], []
    for i in range(m):
        cols = np.sort(rng.choice(v, size=terms_per_item, replace=False))
        counts = rng.integers(1, 5, size=terms_per_item).astype(np.float64)
        peak = counts.max()
        rows_idx.extend([i] * terms_per_item)
        cols_idx.extend(cols.tolist())
        data.extend((counts / peak).tolist())
    doc_rows = from_coo((m, v), rows_idx, cols_idx, np.asarray(data, dtype=np.float64))
    docs = DocTermMatrix(n_items=m, vocab=vocab, rows=doc_rows)

    widths = stack_widths(v, config.encoder_hidden, k)
    weights, biases = [], []
    for d_in, d_out in zip(widths[:-1], widths[1:]):
        weights.append(rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_in, d_out)))
        biases.append(rng.normal(0.0, 0.1, size=d_out))
    true_net = SdaeParams(weights=weights, biases=biases)

    mu = encode(doc_rows, true_net)
    item_factors = mu + config.sigma_beta * rng.standard_normal((m, k))
    user_factors = config.sigma_theta * rng.standard_normal((n, k))
    context_factors = config.sigma_alpha * rng.standard_normal((m, k))

    preference = user_factors @ item_factors.T
    mask = rng.random((n, m)) < config.rating_density
    r_users, r_items = np.nonzero(mask)
    values = (preference[r_users, r_items] + config.rating_offset
              + config.sigma_rating * rng.standard_normal(len(r_users)))
    user_ids = tuple(f"u{j:05d}" for j in range(n))
    item_ids = tuple(f"i{j:05d}" for j in range(m))
    ratings = RatingDataset(n, m, r_users.astype(np.int64), r_items.astype(np.int64),
                            values, user_ids, item_ids)

    clicks_per_user = int(round(config.click_density * m))
    click_pairs: set[tuple[int, int]] = set()
    if clicks_per_user > 0:
        scores = preference + config.click_noise * rng.standard_normal((n, m))
        top = np.argsort(-scores, axis=1)[:, :clicks_per_user]
        for u in range(n):
            for i in top[u]:
                click_pairs.add((u, int(i)))
    if config.clicks_include_rated:
        click_pairs.update(zip(r_users.tolist(), r_items.tolist()))
    ordered = sorted(click_pairs)
    clicks = ClickDataset(n, m,
                          np.asarray([p[0] for p in ordered], dtype=np.int64),
                          np.asarray([p[1] for p in ordered], dtype=np.int64))

    state = ModelState(user_factors=user_factors, item_factors=item_factors,
                       context_factors=context_factors, sdae=true_net,
                       epoch=0, rating_offset=config.rating_offset)
    return ratings, clicks, docs, state
